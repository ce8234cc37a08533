//! Deterministic load generation for soak and equivalence testing.
//!
//! Requests derive from counter-keyed RNG streams ([`RngStreams`]): the
//! request at global index `i` of a mix is a pure function of
//! `(stream seed, i)`, so a load script is reproducible across runs,
//! machines and thread interleavings. Arrival *schedules* (bursts, ramps,
//! uniform trickles) are likewise pure functions of their parameters; only
//! the wall-clock realisation of a schedule varies, and the engine's
//! determinism contract makes that variation invisible in the response
//! bits.

use crate::server::{ServeRequest, ServeResult, SubmitError};
use rand::Rng;
use rpf_nn::RngStreams;
use std::time::{Duration, Instant};

/// Anything a load driver can submit to: a serving region's
/// [`ServeClient`](crate::ServeClient) (flat or sharded), or a wire
/// transport (the HTTP submitter in `rpf-gateway`). `Copy` so closed-loop
/// drivers can hand the handle to every client thread.
///
/// Submission is split into an admission step and a wait step because a
/// remote transport may only learn the admission verdict when it reads the
/// response off the socket: a gateway 429/503 surfaces from [`Submitter::wait`],
/// not [`Submitter::submit`]. The drivers below count a rejection from
/// either step in [`LoadReport::rejected`], so in-process and over-the-wire
/// runs produce comparable reports.
pub trait Submitter: Copy + Send + Sync {
    /// Ticket for an in-flight request.
    type Pending: Send;

    /// Start a request. In-process clients resolve admission here; wire
    /// clients may defer rejection to [`Submitter::wait`].
    fn submit(&self, req: ServeRequest) -> Result<Self::Pending, SubmitError>;

    /// Block until the ticket resolves.
    fn wait(pending: Self::Pending) -> Result<ServeResult, SubmitError>;
}

/// The request population of a load script.
#[derive(Clone, Debug)]
pub struct LoadMix {
    /// Requests target races `0..races`.
    pub races: usize,
    /// Forecast origins drawn uniformly from this half-open range.
    pub origins: (usize, usize),
    /// Candidate horizons, drawn uniformly.
    pub horizons: Vec<usize>,
    /// Candidate Monte-Carlo sample counts, drawn uniformly.
    pub sample_counts: Vec<usize>,
    /// Draw from a pool of only this many distinct queries (models the
    /// live-race hot spot where thousands of users ask the same question);
    /// `None` makes every index an independent draw.
    pub unique_queries: Option<u64>,
    /// Deadline stamped on every generated request.
    pub deadline: Option<Duration>,
}

impl LoadMix {
    /// A small mixed workload over `races` races, suitable for tests.
    pub fn standard(races: usize, origins: (usize, usize)) -> LoadMix {
        LoadMix {
            races,
            origins,
            horizons: vec![1, 2, 3],
            sample_counts: vec![2, 4],
            unique_queries: None,
            deadline: None,
        }
    }

    /// The deterministic request at global index `index`.
    pub fn request_at(&self, streams: &RngStreams, index: u64) -> ServeRequest {
        let key = match self.unique_queries {
            Some(n) if n > 0 => index % n,
            _ => index,
        };
        let mut rng = streams.stream(key);
        let race = rng.gen_range(0..self.races.max(1));
        let origin = if self.origins.1 > self.origins.0 {
            rng.gen_range(self.origins.0..self.origins.1)
        } else {
            self.origins.0
        };
        let horizon = pick(&mut rng, &self.horizons, 1);
        let n_samples = pick(&mut rng, &self.sample_counts, 1);
        ServeRequest {
            race,
            origin,
            horizon,
            n_samples,
            deadline: self.deadline,
        }
    }
}

fn pick(rng: &mut rand::rngs::StdRng, choices: &[usize], default: usize) -> usize {
    if choices.is_empty() {
        default
    } else {
        choices[rng.gen_range(0..choices.len())]
    }
}

/// `n` arrivals all at offset `at` — a thundering-herd burst.
pub fn burst(at: Duration, n: usize) -> Vec<Duration> {
    vec![at; n]
}

/// `n` arrivals evenly spaced `spacing` apart starting at `start`.
pub fn uniform(start: Duration, spacing: Duration, n: usize) -> Vec<Duration> {
    (0..n).map(|i| start + spacing * i as u32).collect()
}

/// `n` arrivals over `total` with linearly increasing rate (square-root
/// time profile: gaps shrink as the ramp climbs).
pub fn ramp(start: Duration, total: Duration, n: usize) -> Vec<Duration> {
    (0..n)
        .map(|i| {
            let frac = ((i + 1) as f64 / n.max(1) as f64).sqrt();
            start + Duration::from_nanos((total.as_nanos() as f64 * frac) as u64)
        })
        .collect()
}

/// Attach deterministic requests to a list of arrival offsets, tagging
/// request indices from `first_index` so concatenated schedules don't
/// collide in stream space.
pub fn schedule(
    times: &[Duration],
    mix: &LoadMix,
    streams: &RngStreams,
    first_index: u64,
) -> Vec<(Duration, ServeRequest)> {
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, mix.request_at(streams, first_index + i as u64)))
        .collect()
}

/// Merge schedules into one time-sorted script (stable: equal offsets keep
/// their concatenation order).
pub fn merge(parts: Vec<Vec<(Duration, ServeRequest)>>) -> Vec<(Duration, ServeRequest)> {
    let mut all: Vec<(Duration, ServeRequest)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(t, _)| *t);
    all
}

/// Stream-space child id reserved for the Zipf race re-draw, so the
/// popularity draw never shares a counter stream with the base request
/// fields.
pub const ZIPF_STREAM: u64 = 0x5a1f;

/// A multi-race trace with skewed race popularity: request fields come
/// from the inner [`LoadMix`], but the race is re-drawn from a Zipf
/// distribution (race `r` gets weight `1/(r+1)^s`), modelling the live
/// Sunday-race hot spot next to a tail of replayed historical races.
/// Deterministic like everything here: the draw at index `i` is a pure
/// function of `(stream seed, i)` via a dedicated counter stream
/// ([`ZIPF_STREAM`]), so shard-imbalance scenarios replay bit-identically.
#[derive(Clone, Debug)]
pub struct MultiRaceMix {
    pub mix: LoadMix,
    /// Zipf exponent `s`; 0 = uniform, larger = more skew toward race 0.
    pub zipf_exponent: f64,
    /// Optional scenario-family label per race index (`scenario_of[r]`
    /// names the family race `r` was generated from). Purely descriptive:
    /// labels ride along with the draw via
    /// [`MultiRaceMix::labeled_request_at`] and never touch the RNG, so a
    /// labeled mix replays bit-identically to an unlabeled one. Empty
    /// (the default) means unlabeled.
    pub scenario_of: Vec<String>,
}

impl MultiRaceMix {
    pub fn new(races: usize, origins: (usize, usize), zipf_exponent: f64) -> MultiRaceMix {
        MultiRaceMix {
            mix: LoadMix::standard(races, origins),
            zipf_exponent,
            scenario_of: Vec::new(),
        }
    }

    /// Attach scenario-family labels (one per race, race index order).
    pub fn with_scenarios(mut self, labels: Vec<String>) -> MultiRaceMix {
        self.scenario_of = labels;
        self
    }

    /// The scenario label of race `race`, if the mix carries one.
    pub fn scenario_label(&self, race: usize) -> Option<&str> {
        self.scenario_of.get(race).map(String::as_str)
    }

    /// Normalised race weights, `w_r ∝ 1/(r+1)^s`.
    pub fn weights(&self) -> Vec<f64> {
        let n = self.mix.races.max(1);
        let raw: Vec<f64> = (0..n)
            .map(|r| 1.0 / ((r + 1) as f64).powf(self.zipf_exponent))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }

    /// The deterministic request at global index `index`: the inner mix's
    /// request with its race replaced by the Zipf draw. The
    /// `unique_queries` pool folding applies to the race draw too, so a
    /// duplicated query stays one query.
    pub fn request_at(&self, streams: &RngStreams, index: u64) -> ServeRequest {
        let mut req = self.mix.request_at(streams, index);
        let key = match self.mix.unique_queries {
            Some(n) if n > 0 => index % n,
            _ => index,
        };
        let mut rng = streams.child(ZIPF_STREAM).stream(key);
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        let weights = self.weights();
        let mut race = weights.len() - 1;
        for (r, w) in weights.iter().enumerate() {
            acc += w;
            if u < acc {
                race = r;
                break;
            }
        }
        req.race = race;
        req
    }

    /// [`MultiRaceMix::request_at`] plus the drawn race's scenario label.
    /// The label is a pure lookup on the already-drawn race — no extra RNG
    /// draws — so the request stream is identical to the unlabeled path.
    pub fn labeled_request_at(
        &self,
        streams: &RngStreams,
        index: u64,
    ) -> (ServeRequest, Option<&str>) {
        let req = self.request_at(streams, index);
        let label = self.scenario_label(req.race);
        (req, label)
    }

    /// [`schedule`] over this mix.
    pub fn schedule(
        &self,
        times: &[Duration],
        streams: &RngStreams,
        first_index: u64,
    ) -> Vec<(Duration, ServeRequest)> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, self.request_at(streams, first_index + i as u64)))
            .collect()
    }
}

/// Everything a load run observed, for assertions.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Requests refused at admission, with the typed reason.
    pub rejected: Vec<(ServeRequest, SubmitError)>,
    /// Accepted requests paired with their responses.
    pub outcomes: Vec<(ServeRequest, ServeResult)>,
}

impl LoadReport {
    pub fn submitted(&self) -> usize {
        self.rejected.len() + self.outcomes.len()
    }
}

/// Open-loop driver: submit on the script's timeline regardless of
/// completions (offered load is independent of service rate — the regime
/// where admission control and deadlines matter), then wait for every
/// accepted response.
pub fn run_open_loop<S: Submitter>(client: S, script: &[(Duration, ServeRequest)]) -> LoadReport {
    let start = Instant::now();
    let mut pending: Vec<(ServeRequest, S::Pending)> = Vec::with_capacity(script.len());
    let mut report = LoadReport::default();
    for &(at, req) in script {
        let now = start.elapsed();
        if at > now {
            std::thread::sleep(at - now);
        }
        match client.submit(req) {
            Ok(p) => pending.push((req, p)),
            Err(e) => report.rejected.push((req, e)),
        }
    }
    for (req, p) in pending {
        match S::wait(p) {
            Ok(result) => report.outcomes.push((req, result)),
            Err(e) => report.rejected.push((req, e)),
        }
    }
    report
}

/// Closed-loop driver: `clients` concurrent callers, each submitting its
/// next request only after the previous response arrives (offered load
/// tracks service rate). Client `c`'s `i`-th request is
/// `mix.request_at(streams.child(c), i)` — fully deterministic.
pub fn run_closed_loop<S: Submitter>(
    client: S,
    clients: usize,
    per_client: usize,
    mix: &LoadMix,
    streams: &RngStreams,
) -> LoadReport {
    let mut report = LoadReport::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let child = streams.child(c as u64);
                s.spawn(move || {
                    let mut local = LoadReport::default();
                    for i in 0..per_client {
                        let req = mix.request_at(&child, i as u64);
                        match client.submit(req).and_then(S::wait) {
                            Ok(result) => local.outcomes.push((req, result)),
                            Err(e) => local.rejected.push((req, e)),
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => {
                    report.rejected.extend(local.rejected);
                    report.outcomes.extend(local.outcomes);
                }
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_generation_is_deterministic_and_seed_sensitive() {
        let mix = LoadMix::standard(3, (40, 90));
        let s = RngStreams::new(7);
        let a = mix.request_at(&s, 5);
        let b = mix.request_at(&s, 5);
        assert_eq!(a, b);
        let c = mix.request_at(&RngStreams::new(8), 5);
        let d = mix.request_at(&s, 6);
        // Either another seed or another index must be able to differ;
        // check the generated population is not a single constant.
        let pool: Vec<ServeRequest> = (0..32).map(|i| mix.request_at(&s, i)).collect();
        let distinct = pool.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(
            distinct > 4,
            "mix degenerated to {distinct} distinct requests"
        );
        let _ = (c, d);
    }

    #[test]
    fn unique_query_pool_duplicates_requests() {
        let mix = LoadMix {
            unique_queries: Some(4),
            ..LoadMix::standard(2, (40, 80))
        };
        let s = RngStreams::new(9);
        let a: Vec<ServeRequest> = (0..16).map(|i| mix.request_at(&s, i)).collect();
        assert_eq!(a[0], a[4]);
        assert_eq!(a[1], a[9]);
        let distinct = a.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct <= 4);
    }

    #[test]
    fn zipf_mix_is_deterministic_and_skewed() {
        let mix = MultiRaceMix::new(4, (40, 90), 1.1);
        let s = RngStreams::new(11);
        let a = mix.request_at(&s, 3);
        assert_eq!(a, mix.request_at(&s, 3), "pure function of (seed, index)");
        let mut counts = [0usize; 4];
        for i in 0..512 {
            counts[mix.request_at(&s, i).race] += 1;
        }
        assert!(
            counts[0] > counts[3],
            "race 0 must dominate the tail: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "every race must still appear: {counts:?}"
        );
        // Weights are a proper distribution, most popular first.
        let w = mix.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn scenario_labels_ride_along_without_changing_draws() {
        let plain = MultiRaceMix::new(4, (40, 90), 1.1);
        let labeled = MultiRaceMix::new(4, (40, 90), 1.1).with_scenarios(vec![
            "indycar".into(),
            "tyre_strategy".into(),
            "caution_regime".into(),
            "wet_dry".into(),
        ]);
        let s = RngStreams::new(11);
        for i in 0..256 {
            let a = plain.request_at(&s, i);
            let (b, label) = labeled.labeled_request_at(&s, i);
            assert_eq!(a, b, "labels must not perturb the request stream");
            assert_eq!(label, labeled.scenario_label(b.race));
            assert!(label.is_some(), "every race in this mix is labeled");
        }
        // An unlabeled mix hands back None without changing anything else.
        let (req, label) = plain.labeled_request_at(&s, 7);
        assert_eq!(req, plain.request_at(&s, 7));
        assert!(label.is_none());
    }

    #[test]
    fn schedules_are_monotone_after_merge() {
        let mix = LoadMix::standard(1, (40, 50));
        let s = RngStreams::new(1);
        let parts = vec![
            schedule(&burst(Duration::from_millis(2), 3), &mix, &s, 0),
            schedule(
                &uniform(Duration::ZERO, Duration::from_millis(1), 4),
                &mix,
                &s,
                100,
            ),
            schedule(
                &ramp(Duration::ZERO, Duration::from_millis(5), 5),
                &mix,
                &s,
                200,
            ),
        ];
        let merged = merge(parts);
        assert_eq!(merged.len(), 12);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
