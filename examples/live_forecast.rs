//! Live race forecasting — replay a race lap by lap and keep a running
//! two-lap forecast of the leader and of one tracked car, the way the
//! paper's system would sit on the IndyCar timing feed.
//!
//! ```text
//! cargo run --release --example live_forecast
//! ```

use ranknet::core::engine::ForecastEngine;
use ranknet::core::features::extract_sequences;
use ranknet::core::metrics::quantile;
use ranknet::core::ranknet::{ranks_by_sorting, RankNet, RankNetVariant};
use ranknet::core::RankNetConfig;
use ranknet::racesim::{Dataset, Event, Split};

fn main() {
    let dataset = Dataset::generate_event(Event::Indy500, 7);
    let train: Vec<_> = dataset
        .split(Event::Indy500, Split::Training)
        .iter()
        .map(|(_, r)| extract_sequences(r))
        .collect();
    let val: Vec<_> = dataset
        .split(Event::Indy500, Split::Validation)
        .iter()
        .map(|(_, r)| extract_sequences(r))
        .collect();
    let live = extract_sequences(dataset.race(Event::Indy500, 2019));

    let cfg = RankNetConfig {
        max_epochs: 10,
        ..Default::default()
    };
    println!("Training RankNet-MLP for live duty ...");
    let (model, _) = RankNet::fit(train, val, cfg, RankNetVariant::Mlp, 14);

    // Track the eventual winner from mid-race.
    let winner_slot = (0..live.sequences.len())
        .find(|&c| {
            let s = &live.sequences[c];
            s.len() == live.total_laps && *s.rank.last().unwrap() == 1.0
        })
        .expect("winner ran the full distance");
    let tracked = &live.sequences[winner_slot];
    println!("Tracking car {} (the eventual winner).\n", tracked.car_id);

    println!(
        "  {:>5} {:>12} {:>14} {:>16} {:>12}",
        "lap", "cur leader", "pred leader+2", "tracked med+2", "tracked act+2"
    );
    // The engine replaces the hand-threaded rng: draws derive from
    // (seed, race, origin), so a re-run — or a differently-threaded run —
    // reprints this table exactly.
    let engine = ForecastEngine::new(&model, 3);
    let mut leader_hits = 0usize;
    let mut calls = 0usize;
    for origin in (70..190).step_by(12) {
        // A live loop can't afford a panic mid-race: the validating API
        // returns a typed error for a bad request, and flags trajectories
        // that degraded to the CurRank fallback instead of failing.
        let forecast = match engine.try_forecast_keyed(0, &live, origin, 2, 20) {
            Ok(f) => f,
            Err(e) => {
                println!("  {origin:>5} request rejected: {e}");
                continue;
            }
        };
        if forecast.degraded {
            println!(
                "  {:>5} serving degraded: {} trajectorie(s) on CurRank fallback",
                origin, forecast.degraded_trajectories
            );
        }
        let samples = forecast.samples;
        let ranked = ranks_by_sorting(&samples, 1);

        // Predicted leader: most frequent rank-1 car across samples.
        let pred_leader = (0..live.sequences.len())
            .filter(|&c| !ranked[c].is_empty())
            .max_by_key(|&c| ranked[c].iter().filter(|&&r| r == 1.0).count())
            .unwrap();
        let cur_leader = (0..live.sequences.len())
            .find(|&c| {
                let s = &live.sequences[c];
                s.len() > origin - 1 && s.rank[origin - 1] == 1.0
            })
            .unwrap();
        let actual_leader = (0..live.sequences.len())
            .find(|&c| {
                let s = &live.sequences[c];
                s.len() > origin + 1 && s.rank[origin + 1] == 1.0
            })
            .unwrap();

        let med = quantile(&ranked[winner_slot], 0.5);
        println!(
            "  {:>5} {:>12} {:>14} {:>16.1} {:>12}",
            origin,
            live.sequences[cur_leader].car_id,
            live.sequences[pred_leader].car_id,
            med,
            tracked.rank[origin + 1]
        );
        calls += 1;
        if live.sequences[pred_leader].car_id == live.sequences[actual_leader].car_id {
            leader_hits += 1;
        }
    }
    println!(
        "\nLive leader prediction accuracy over the stint: {}/{} ({:.0}%)",
        leader_hits,
        calls,
        100.0 * leader_hits as f32 / calls as f32
    );

    let t = engine.timings();
    println!(
        "Engine: {} calls on {} thread(s) — encode {:.1}ms, covariates {:.1}ms, \
         decode {:.1}ms ({:.0} trajectories/s)",
        t.calls,
        engine.threads(),
        t.encode.as_secs_f64() * 1e3,
        t.covariates.as_secs_f64() * 1e3,
        t.decode.as_secs_f64() * 1e3,
        t.trajectories_per_sec()
    );
    println!(
        "Health: {} rejected request(s), {} degraded trajectorie(s)",
        t.rejected_requests, t.degraded_trajectories
    );
}
