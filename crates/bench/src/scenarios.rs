//! Cross-scenario benchmark: the paper's stint-level metrics (Table VI's
//! SignAcc / MAE) for each model family, on each scenario family of the
//! simulator's scenario engine.
//!
//! Two contracts anchor the table:
//!
//! * the IndyCar column runs on **exactly** the Table VI data path — the
//!   same `one_event(Indy500)` dataset, the same 2019 test race, the same
//!   halved-sample eval config, and the same cached models — so its
//!   CurRank / XGBoost / RankNet-MLP numbers reproduce `repro table6`
//!   to the bit;
//! * the synthetic families (tyre strategy, caution regime, wet/dry) are
//!   deterministic from `(ScenarioConfig, DATASET_SEED)`, and their
//!   RankNet is trained with `use_scenario_features = true`, exercising
//!   the scenario covariate path end to end.
//!
//! Besides the ASCII table, every cell is emitted as a machine-parseable
//! stdout line — `scenario <family> model=<name> sign_acc=<v> mae=<v>
//! n=<v>` — which `scripts/scenario_snapshot.sh` turns into
//! `BENCH_<date>_scenarios.json`.

use crate::ascii;
use crate::dataset::{event_data, one_event, DATASET_SEED};
use crate::models::{self, Profile};
use ranknet_core::baseline_adapters::{
    ArimaForecaster, CurRankForecaster, Forecaster, RegKind, RegressionForecaster,
};
use ranknet_core::eval::{eval_stint, StintRow};
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use rpf_racesim::{generate_races, Event, ScenarioConfig, ScenarioFamily};

/// One scenario family's evaluated rows (model order: CurRank, ARIMA,
/// GBT, RankNet-MLP).
pub struct FamilyResult {
    pub family: ScenarioFamily,
    pub rows: Vec<StintRow>,
}

/// A profile small enough for the CI smoke gate: tiny training budget,
/// sparse windows, few forecast samples. The table is statistically
/// meaningless at this size — the gate checks wiring, not accuracy.
pub fn smoke_profile() -> Profile {
    Profile {
        stride: 48,
        epochs: 2,
        n_samples: 8,
        origin_step: 24,
        tx_stride: 64,
        tx_epochs: 1,
    }
}

/// Deterministic train/val/test split for one synthetic family:
/// `n_train + 2` races from the family's standard config, seeded off the
/// shared dataset seed, last two held out as validation and test.
fn scenario_split(
    family: ScenarioFamily,
    n_train: usize,
) -> (Vec<RaceContext>, Vec<RaceContext>, RaceContext) {
    let cfg = ScenarioConfig::standard(family, Event::Indy500, 2018);
    let races = generate_races(&cfg, DATASET_SEED, n_train + 2);
    let mut ctxs: Vec<RaceContext> = races.iter().map(extract_sequences).collect();
    let test = ctxs.pop().expect("split always has a test race");
    let val = ctxs.pop().expect("split always has a val race");
    (ctxs, vec![val], test)
}

/// Evaluate the four model families on one synthetic scenario family.
fn eval_synthetic_family(profile: &Profile, family: ScenarioFamily) -> FamilyResult {
    let n_train = if profile.stride >= 24 { 1 } else { 3 };
    let (train, val, test) = scenario_split(family, n_train);
    let mut eval_cfg = profile.eval_cfg();
    eval_cfg.n_samples = (eval_cfg.n_samples / 2).max(8); // long horizons, as Table VI

    let mut rows = Vec::new();
    rows.push(eval_stint(&CurRankForecaster, &test, &eval_cfg));
    rows.push(eval_stint(&ArimaForecaster::default(), &test, &eval_cfg));
    let gbt = RegressionForecaster::fit(RegKind::Gbt, &train, 8, (profile.stride * 2).max(4), 0);
    eprintln!("  [train] {} ({})", gbt.name(), family.name());
    rows.push(eval_stint(&gbt, &test, &eval_cfg));

    // The deep model sees the scenario covariates: this is the end-to-end
    // exercise of the widened feature schema (config flag -> encoder rows
    // -> scenario-aware pit model).
    let mut cfg = profile.model_cfg();
    cfg.use_scenario_features = true;
    let (ranknet, report) = RankNet::fit(train, val, cfg, RankNetVariant::Mlp, profile.stride);
    eprintln!(
        "  [train] {} ({}) epochs={} best_val={:.4}",
        RankNetVariant::Mlp.name(),
        family.name(),
        report.rank_model.epochs_run,
        report.rank_model.best_val_loss
    );
    rows.push(eval_stint(&ranknet, &test, &eval_cfg));
    FamilyResult { family, rows }
}

/// Evaluate the four model families on the IndyCar baseline via the exact
/// Table VI path: same dataset, same test race, same model caches.
fn eval_indycar_family(profile: &Profile) -> FamilyResult {
    let d = one_event(Event::Indy500);
    let data = event_data(&d, Event::Indy500);
    let test = &data
        .test
        .iter()
        .find(|(y, _)| *y == 2019)
        .expect("Indy500 test split includes 2019")
        .1;
    let mut eval_cfg = profile.eval_cfg();
    eval_cfg.n_samples = (eval_cfg.n_samples / 2).max(8); // long horizons, as Table VI

    let mut rows = Vec::new();
    rows.push(eval_stint(&CurRankForecaster, test, &eval_cfg));
    rows.push(eval_stint(&ArimaForecaster::default(), test, &eval_cfg));
    let regs = models::regressors_for(profile, Event::Indy500, &data.train, 8);
    let gbt = regs
        .iter()
        .find(|r| r.name() == "XGBoost")
        .expect("regressor set includes the GBT model");
    rows.push(eval_stint(gbt, test, &eval_cfg));
    let ranknet = models::ranknet_for(
        profile,
        Event::Indy500,
        &data.train,
        &data.val,
        RankNetVariant::Mlp,
    );
    rows.push(eval_stint(&*ranknet, test, &eval_cfg));
    FamilyResult {
        family: ScenarioFamily::IndyCar,
        rows,
    }
}

/// Run the full cross-scenario sweep: every model family x every scenario
/// family, IndyCar first (on the Table VI path).
pub fn run_cross_scenario(profile: &Profile) -> Vec<FamilyResult> {
    ScenarioFamily::ALL
        .iter()
        .map(|&family| match family {
            ScenarioFamily::IndyCar => eval_indycar_family(profile),
            other => eval_synthetic_family(profile, other),
        })
        .collect()
}

fn f2(v: f32) -> String {
    format!("{v:.2}")
}

/// The `repro scenarios` target: print the cross-scenario table and the
/// machine-parseable per-cell lines.
pub fn scenarios(profile: &Profile) {
    println!();
    println!("Cross-scenario benchmark: stint forecasting (SignAcc / MAE) per scenario family");
    println!("(IndyCar column = the Table VI data path; see EXPERIMENTS.md)");
    let results = run_cross_scenario(profile);

    let mut out = vec![vec![
        "Scenario".into(),
        "Model".into(),
        "SignAcc".into(),
        "MAE".into(),
        "50-Risk".into(),
        "90-Risk".into(),
        "n".into(),
    ]];
    for fr in &results {
        for row in &fr.rows {
            out.push(vec![
                fr.family.name().into(),
                row.model.clone(),
                f2(row.sign_acc),
                f2(row.mae),
                f2(row.risk50),
                f2(row.risk90),
                row.n.to_string(),
            ]);
        }
    }
    ascii::table(&out);

    for fr in &results {
        for row in &fr.rows {
            println!(
                "scenario {} model={} sign_acc={:.4} mae={:.4} n={}",
                fr.family.name(),
                row.model,
                row.sign_acc,
                row.mae,
                row.n
            );
        }
    }
}
