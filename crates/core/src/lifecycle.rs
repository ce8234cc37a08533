//! Zero-downtime model lifecycle (DESIGN.md §14): versioned artifacts on
//! disk, an atomically swappable in-memory model slot, and an online
//! fine-tuning loop that publishes candidate versions.
//!
//! Three pieces compose:
//!
//! * [`ModelStore`] — a crash-safe directory of versioned model artifacts.
//!   Every version is a directory `versions/v{id:06}/` holding the model
//!   snapshot (`model.json`, written via [`crate::persist::atomic_write`])
//!   and a checksummed [`Manifest`] (`manifest.json`). The manifest is
//!   written **last** and is the commit point: a directory without one is a
//!   torn artifact from a crash mid-publish and is quarantined, never
//!   loaded. Version ids are monotone and never reused, even across
//!   quarantines.
//! * [`ModelSlot`] — the shared ownership cell a live engine reads its
//!   model through: one mutex around an `Arc`, loaded once per engine call.
//!   A swap installs a new [`VersionedModel`] atomically. In-flight work
//!   that already loaded the old `Arc` finishes on the old version; every
//!   load after the swap sees the new one.
//! * [`OnlineFineTuner`] — consumes newly observed races, fine-tunes a
//!   working copy in bounded per-round slices through
//!   [`RankModel::train_resumable`](crate::rank_model::RankModel::train_resumable),
//!   carrying the training checkpoint between rounds (so N rounds ≡ one
//!   long run), and publishes candidates to the store.
//!
//! A model changes only through [`ModelSlot::swap`]; the serving side
//! walks slots through one panic-guarded path
//! (`rpf_serve::LifecycleController::rolling_swap`).
//!
//! The serving-side state machine (shadow evaluation, promote / rollback
//! gates) lives in `rpf-serve`; this module owns everything below it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::features::RaceContext;
use crate::instances::TrainingSet;
use crate::persist::{atomic_write, Fnv1a};
use crate::rank_model::ForecastSamples;
use crate::ranknet::{RankNet, FINE_TUNE_LR_SCALE};
use rpf_nn::train::{TrainCheckpoint, TrainReport};

/// Manifest schema version.
const MANIFEST_VERSION: u32 = 1;

/// Width of the zero-padded version id in directory names (`v000001`).
const VERSION_WIDTH: usize = 6;

// ---- errors ----------------------------------------------------------------

/// Why a lifecycle operation failed. Every variant carries enough context
/// to act on: a [`LifecycleError::Torn`] or [`LifecycleError::Corrupt`]
/// version has already been quarantined by the time the error is returned.
#[derive(Clone, Debug, PartialEq)]
pub enum LifecycleError {
    /// Filesystem trouble (path + cause).
    Io(String),
    /// The requested version does not exist in the store.
    NotFound(u64),
    /// The artifact exists but its bytes do not match the manifest
    /// checksum, or the snapshot fails its own integrity checks.
    Corrupt { version: u64, detail: String },
    /// The artifact directory has no committed manifest — a crash landed
    /// between the model write and the manifest write.
    Torn { version: u64 },
    /// Fine-tuning failed (wraps [`rpf_nn::train::TrainError`]).
    Train(String),
    /// API misuse (e.g. a fine-tune round before any data was ingested).
    Invalid(String),
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::Io(s) => write!(f, "lifecycle io: {s}"),
            LifecycleError::NotFound(v) => write!(f, "model version {v} not found"),
            LifecycleError::Corrupt { version, detail } => {
                write!(f, "model version {version} corrupt: {detail}")
            }
            LifecycleError::Torn { version } => {
                write!(f, "model version {version} torn (no committed manifest)")
            }
            LifecycleError::Train(s) => write!(f, "fine-tune failed: {s}"),
            LifecycleError::Invalid(s) => write!(f, "lifecycle: {s}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

fn io_err(what: &str, path: &Path, e: impl std::fmt::Display) -> LifecycleError {
    LifecycleError::Io(format!("{what} {}: {e}", path.display()))
}

// ---- versioned model + slot ------------------------------------------------

/// A model pinned to its lifecycle version. Version 0 means "unversioned" —
/// an engine built directly from a bare [`RankNet`] without a store.
#[derive(Clone)]
pub struct VersionedModel {
    pub version: u64,
    pub model: Arc<RankNet>,
}

impl VersionedModel {
    pub fn new(version: u64, model: impl Into<Arc<RankNet>>) -> VersionedModel {
        VersionedModel {
            version,
            model: model.into(),
        }
    }
}

/// The swappable model cell shared between a serving engine and the
/// lifecycle controller: one mutex around one `Arc<VersionedModel>`.
///
/// **Read path:** [`ModelSlot::load`] takes the lock, clones the `Arc` and
/// releases it. An engine loads once per call (one micro-batch), so the
/// lock is taken a few hundred times a second under benchmark load and is
/// held for one reference-count increment.
///
/// **Swap path:** [`ModelSlot::swap`] replaces the `Arc` under the same
/// lock. Work that cloned the old `Arc` before the swap keeps it alive and
/// finishes on the old version — a swap never invalidates an in-flight
/// batch — and every load after the swap returns the new model.
pub struct ModelSlot {
    current: Mutex<Arc<VersionedModel>>,
}

impl ModelSlot {
    pub fn new(model: VersionedModel) -> Arc<ModelSlot> {
        Arc::new(ModelSlot {
            current: Mutex::new(Arc::new(model)),
        })
    }

    /// The current model.
    pub fn load(&self) -> Arc<VersionedModel> {
        Arc::clone(&self.lock())
    }

    /// Install a new model; returns the one it replaced. Atomic from every
    /// reader's point of view: a load returns either the old or the new
    /// model, never a mixture, and post-swap loads return the new one.
    pub fn swap(&self, next: VersionedModel) -> Arc<VersionedModel> {
        let mut cur = self.lock();
        // The injected "panic mid-swap" fires here — after the decision to
        // swap, before publication. The old model stays installed; the
        // poisoned mutex is recovered by every other accessor.
        #[cfg(feature = "fault-inject")]
        fault::maybe_panic_mid_swap();
        std::mem::replace(&mut *cur, Arc::new(next))
    }

    /// Version of the currently installed model.
    pub fn version(&self) -> u64 {
        self.load().version
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<VersionedModel>> {
        // The slot holds a plain Arc (no invariant a panicking swapper
        // could break mid-update), so a poisoned lock is recovered — one
        // crashed swap must not take serving down.
        self.current.lock().unwrap_or_else(|p| p.into_inner())
    }
}

// ---- on-disk store ---------------------------------------------------------

/// Committed metadata of one published version. Written after the model
/// artifact; its presence marks the version as fully published.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Manifest {
    /// Manifest schema version.
    pub format: u32,
    /// The version id (matches the directory name).
    pub version: u64,
    /// FNV-1a checksum of the raw `model.json` bytes.
    pub checksum: u64,
    /// Size of `model.json` in bytes.
    pub bytes: u64,
    /// Version this one was fine-tuned from, if any.
    pub parent: Option<u64>,
    /// Free-form provenance note ("seed train", "online round 3", ...).
    pub note: String,
}

/// Crash-safe versioned model store.
///
/// ```text
/// root/
///   versions/v000001/model.json      # atomic_write (tmp + fsync + rename)
///   versions/v000001/manifest.json   # written last = commit point
///   CURRENT                          # ascii id of the serving version
///   quarantine/v000002-torn/         # failed artifacts, kept for autopsy
/// ```
///
/// Publication order is the crash-safety argument: `model.json` lands
/// first (itself atomic), `manifest.json` second (also atomic). A crash
/// before the manifest rename leaves a directory without a manifest —
/// recognisably torn, quarantined by [`ModelStore::open`], and its version
/// id is never reused. A crash after leaves a fully published version.
/// There is no window in which a half-written artifact can be loaded.
pub struct ModelStore {
    root: PathBuf,
}

impl ModelStore {
    /// Open (creating if needed) a store rooted at `root`, then sweep for
    /// torn artifacts: any version directory without a committed manifest
    /// is moved to `quarantine/`. Returns the store; use
    /// [`ModelStore::quarantined`] to inspect what the sweep moved.
    pub fn open(root: impl Into<PathBuf>) -> Result<ModelStore, LifecycleError> {
        let root = root.into();
        let store = ModelStore { root };
        for dir in [store.versions_dir(), store.quarantine_dir()] {
            fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        }
        store.sweep_torn()?;
        Ok(store)
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn versions_dir(&self) -> PathBuf {
        self.root.join("versions")
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn version_dir(&self, version: u64) -> PathBuf {
        self.versions_dir()
            .join(format!("v{version:0width$}", width = VERSION_WIDTH))
    }

    fn current_path(&self) -> PathBuf {
        self.root.join("CURRENT")
    }

    /// Parse a `v{id:06}` (or `v{id:06}-reason`) directory name.
    fn parse_version(name: &str) -> Option<u64> {
        let digits = name.strip_prefix('v')?;
        let digits = digits.split('-').next()?;
        digits.parse().ok()
    }

    /// Move every manifest-less version directory into quarantine.
    fn sweep_torn(&self) -> Result<Vec<u64>, LifecycleError> {
        let mut torn = Vec::new();
        for v in self.versions()? {
            if !self.version_dir(v).join("manifest.json").exists() {
                self.quarantine(v, "torn")?;
                torn.push(v);
            }
        }
        Ok(torn)
    }

    /// Committed *and* torn version ids under `versions/`, ascending.
    fn versions_raw(&self) -> Result<Vec<u64>, LifecycleError> {
        let dir = self.versions_dir();
        let mut out = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("read", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read", &dir, e))?;
            if let Some(v) = entry.file_name().to_str().and_then(Self::parse_version) {
                out.push(v);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Version ids present under `versions/`, ascending. After
    /// [`ModelStore::open`]'s sweep these are all committed.
    pub fn versions(&self) -> Result<Vec<u64>, LifecycleError> {
        self.versions_raw()
    }

    /// Highest committed version id, if any.
    pub fn latest(&self) -> Result<Option<u64>, LifecycleError> {
        Ok(self
            .versions()?
            .into_iter()
            .filter(|&v| self.version_dir(v).join("manifest.json").exists())
            .max())
    }

    /// Next version id: one past the highest id ever used, including
    /// quarantined ones — a quarantined id is never reissued.
    fn next_version(&self) -> Result<u64, LifecycleError> {
        let mut max = 0;
        for v in self.versions_raw()? {
            max = max.max(v);
        }
        let qdir = self.quarantine_dir();
        let entries = fs::read_dir(&qdir).map_err(|e| io_err("read", &qdir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read", &qdir, e))?;
            if let Some(v) = entry.file_name().to_str().and_then(Self::parse_version) {
                max = max.max(v);
            }
        }
        Ok(max + 1)
    }

    /// Publish a model as the next version. Crash-safe: the version is
    /// visible to [`ModelStore::load`] only once its manifest has landed.
    /// Does **not** touch `CURRENT` — promotion is a separate, explicit
    /// [`ModelStore::set_current`].
    pub fn publish(
        &self,
        model: &RankNet,
        parent: Option<u64>,
        note: &str,
    ) -> Result<Manifest, LifecycleError> {
        let version = self.next_version()?;
        let dir = self.version_dir(version);
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;

        let json = serde_json::to_string(&model.to_saved())
            .map_err(|e| LifecycleError::Io(format!("serialize model: {e}")))?;
        let bytes = json.as_bytes();
        let model_path = dir.join("model.json");
        atomic_write(&model_path, bytes).map_err(LifecycleError::Io)?;

        // Injected crash between the artifact write and the manifest
        // commit: the directory is left torn, exactly as a real crash
        // would, and the next open() quarantines it.
        #[cfg(feature = "fault-inject")]
        if fault::take_tear_publish() {
            return Err(LifecycleError::Torn { version });
        }

        let mut h = Fnv1a::new();
        h.write(bytes);
        let manifest = Manifest {
            format: MANIFEST_VERSION,
            version,
            checksum: h.finish(),
            bytes: bytes.len() as u64,
            parent,
            note: note.to_string(),
        };
        let mjson = serde_json::to_string(&manifest)
            .map_err(|e| LifecycleError::Io(format!("serialize manifest: {e}")))?;
        atomic_write(dir.join("manifest.json"), mjson.as_bytes()).map_err(LifecycleError::Io)?;
        Ok(manifest)
    }

    /// Read a version's committed manifest.
    pub fn manifest(&self, version: u64) -> Result<Manifest, LifecycleError> {
        let dir = self.version_dir(version);
        if !dir.exists() {
            return Err(LifecycleError::NotFound(version));
        }
        let path = dir.join("manifest.json");
        if !path.exists() {
            return Err(LifecycleError::Torn { version });
        }
        let json = fs::read_to_string(&path).map_err(|e| io_err("read", &path, e))?;
        let m: Manifest = serde_json::from_str(&json).map_err(|e| LifecycleError::Corrupt {
            version,
            detail: format!("manifest parse: {e}"),
        })?;
        if m.format != MANIFEST_VERSION {
            return Err(LifecycleError::Corrupt {
                version,
                detail: format!("manifest format {} (expected {MANIFEST_VERSION})", m.format),
            });
        }
        Ok(m)
    }

    /// Load a version, verifying the artifact bytes against the manifest
    /// checksum and the snapshot against its own embedded checksum. A
    /// mismatch, a manifest that does not parse, or a torn directory
    /// quarantines the version before the error is returned — a corrupt
    /// artifact can be hit at most once.
    pub fn load(&self, version: u64) -> Result<(RankNet, Manifest), LifecycleError> {
        let manifest = match self.manifest(version) {
            Ok(m) => m,
            Err(e @ LifecycleError::Torn { .. }) => {
                self.quarantine(version, "torn")?;
                return Err(e);
            }
            Err(e @ LifecycleError::Corrupt { .. }) => {
                self.quarantine(version, "corrupt")?;
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        let path = self.version_dir(version).join("model.json");
        let bytes = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let mut h = Fnv1a::new();
        h.write(&bytes);
        let sum = h.finish();
        if sum != manifest.checksum {
            self.quarantine(version, "corrupt")?;
            return Err(LifecycleError::Corrupt {
                version,
                detail: format!(
                    "artifact bytes hash to {sum:#018x}, manifest says {:#018x}",
                    manifest.checksum
                ),
            });
        }
        let json = String::from_utf8(bytes).map_err(|e| {
            // Checksum matched, so the manifest itself endorsed non-UTF-8
            // bytes: quarantine rather than retry forever.
            let _ = self.quarantine(version, "corrupt");
            LifecycleError::Corrupt {
                version,
                detail: format!("artifact not UTF-8: {e}"),
            }
        })?;
        let saved = serde_json::from_str(&json).map_err(|e| {
            let _ = self.quarantine(version, "corrupt");
            LifecycleError::Corrupt {
                version,
                detail: format!("artifact parse: {e}"),
            }
        })?;
        let model = RankNet::from_saved(&saved).map_err(|e| {
            let _ = self.quarantine(version, "corrupt");
            LifecycleError::Corrupt { version, detail: e }
        })?;
        Ok((model, manifest))
    }

    /// The version `CURRENT` points at, if set.
    pub fn current(&self) -> Result<Option<u64>, LifecycleError> {
        let path = self.current_path();
        if !path.exists() {
            return Ok(None);
        }
        let s = fs::read_to_string(&path).map_err(|e| io_err("read", &path, e))?;
        s.trim()
            .parse()
            .map(Some)
            .map_err(|e| LifecycleError::Io(format!("parse CURRENT '{}': {e}", s.trim())))
    }

    /// Atomically point `CURRENT` at a committed version.
    pub fn set_current(&self, version: u64) -> Result<(), LifecycleError> {
        self.manifest(version)?; // refuse to promote a torn/missing version
        atomic_write(self.current_path(), version.to_string().as_bytes())
            .map_err(LifecycleError::Io)
    }

    /// Load the version `CURRENT` points at.
    pub fn load_current(&self) -> Result<(RankNet, Manifest), LifecycleError> {
        match self.current()? {
            Some(v) => self.load(v),
            None => Err(LifecycleError::Invalid("no CURRENT version set".into())),
        }
    }

    /// Move a version directory into `quarantine/` with a reason suffix.
    /// Keeps the bytes for post-mortem instead of deleting them. If
    /// `CURRENT` points at the quarantined version, it is cleared.
    pub fn quarantine(&self, version: u64, reason: &str) -> Result<PathBuf, LifecycleError> {
        let src = self.version_dir(version);
        if !src.exists() {
            return Err(LifecycleError::NotFound(version));
        }
        let base = format!("v{version:0width$}-{reason}", width = VERSION_WIDTH);
        let mut dst = self.quarantine_dir().join(&base);
        let mut n = 1;
        while dst.exists() {
            dst = self.quarantine_dir().join(format!("{base}-{n}"));
            n += 1;
        }
        fs::rename(&src, &dst).map_err(|e| io_err("quarantine", &src, e))?;
        if self.current()? == Some(version) {
            fs::remove_file(self.current_path())
                .map_err(|e| io_err("clear CURRENT", &self.current_path(), e))?;
        }
        Ok(dst)
    }

    /// Names of quarantined artifact directories (`v000002-torn`, ...),
    /// sorted.
    pub fn quarantined(&self) -> Result<Vec<String>, LifecycleError> {
        let dir = self.quarantine_dir();
        let mut out = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("read", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read", &dir, e))?;
            if let Some(name) = entry.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        out.sort();
        Ok(out)
    }
}

// ---- online fine-tuning ----------------------------------------------------

/// Epochs trained per [`OnlineFineTuner::round`].
const EPOCHS_PER_ROUND: usize = 1;

/// Window stride when building training instances from ingested races.
const TRAIN_STRIDE: usize = 1;

/// Window stride for the validation split.
const VAL_STRIDE: usize = 4;

/// Incremental fine-tuning loop: ingest newly observed races, train the
/// working copy one bounded round at a time, publish candidates.
///
/// The working copy trains at `FINE_TUNE_LR_SCALE` times the base
/// model's learning rate (fine-tuning nudges, it does not retrain). Each
/// round carries the full [`TrainCheckpoint`] — weights, Adam moments,
/// batch-iterator position, early-stopping bookkeeping — into the next,
/// so on a fixed ingested set `k` rounds land on weights bit-identical to
/// one `k`-epoch run: serving can interleave rounds with traffic without
/// changing what is learned. Ingesting new data drops the checkpoint (the
/// instance set changed; resuming a batch iterator into it would silently
/// desync the shuffle sequence).
pub struct OnlineFineTuner {
    model: RankNet,
    checkpoint: Option<TrainCheckpoint>,
    parent: Option<u64>,
    data: Option<(TrainingSet, TrainingSet)>,
}

impl OnlineFineTuner {
    /// Start from a base model (typically the serving version); `parent`
    /// is its store version for manifest provenance, `None` if unmanaged.
    pub fn new(base: &RankNet, parent: Option<u64>) -> OnlineFineTuner {
        let mut model = base.clone();
        model.rank_model.cfg.learning_rate *= FINE_TUNE_LR_SCALE;
        OnlineFineTuner {
            model,
            checkpoint: None,
            parent,
            data: None,
        }
    }

    /// Replace the working data with newly observed races. Drops the
    /// round checkpoint — see the type docs for why.
    pub fn ingest(&mut self, train: Vec<RaceContext>, val: Vec<RaceContext>) {
        let ts = TrainingSet::build(train, &self.model.cfg, TRAIN_STRIDE);
        let vs = TrainingSet::build(val, &self.model.cfg, VAL_STRIDE);
        self.data = Some((ts, vs));
        self.checkpoint = None;
    }

    /// Run one bounded fine-tuning round (`EPOCHS_PER_ROUND` epochs) on
    /// the ingested data, resuming from the last round's checkpoint.
    pub fn round(&mut self) -> Result<TrainReport, LifecycleError> {
        let (ts, vs) = self
            .data
            .as_ref()
            .ok_or_else(|| LifecycleError::Invalid("round() before ingest()".into()))?;
        if ts.instances.is_empty() {
            return Err(LifecycleError::Invalid(
                "ingested races yield no training windows".into(),
            ));
        }
        let rm = &mut self.model.rank_model;
        let next_epoch = self.checkpoint.as_ref().map_or(0, |c| c.next_epoch);
        let old_cap = rm.cfg.max_epochs;
        rm.cfg.max_epochs = next_epoch + EPOCHS_PER_ROUND;
        let mut last = None;
        let report = rm.train_resumable(
            ts,
            vs,
            self.checkpoint.as_ref(),
            Some(&mut |c: &TrainCheckpoint| last = Some(c.clone())),
        );
        rm.cfg.max_epochs = old_cap;
        let report = report.map_err(|e| LifecycleError::Train(e.to_string()))?;
        if last.is_some() {
            self.checkpoint = last;
        }
        Ok(report)
    }

    /// The current working copy (candidate weights).
    pub fn candidate(&self) -> &RankNet {
        &self.model
    }

    /// Publish the candidate to the store; the new version becomes the
    /// parent of subsequent publishes.
    pub fn publish(&mut self, store: &ModelStore, note: &str) -> Result<Manifest, LifecycleError> {
        let m = store.publish(&self.model, self.parent, note)?;
        self.parent = Some(m.version);
        Ok(m)
    }
}

// ---- shadow-evaluation divergence ------------------------------------------

/// Rank divergence between two forecasts of the same request, in
/// milli-rank units: `round(1000 × mean |a − b|)` over every
/// `(car, sample, step)` present in both. Integer so it can feed a
/// fixed-edge [`rpf_obs`] histogram; 0 means bit-equal mean behaviour,
/// 1000 means the candidate moves cars one whole rank position on average.
pub fn rank_divergence_milli(a: &ForecastSamples, b: &ForecastSamples) -> u64 {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for (ca, cb) in a.iter().zip(b) {
        for (sa, sb) in ca.iter().zip(cb) {
            for (&va, &vb) in sa.iter().zip(sb) {
                if va.is_finite() && vb.is_finite() {
                    sum += (va as f64 - vb as f64).abs();
                    n += 1;
                }
            }
        }
    }
    if n == 0 {
        return 0;
    }
    (sum / n as f64 * 1000.0).round() as u64
}

// ---- fault injection -------------------------------------------------------

/// Lifecycle fault hooks, compiled in only with the `fault-inject`
/// feature. Each fault is one-shot: armed, consumed by the next matching
/// operation, then clear.
#[cfg(feature = "fault-inject")]
pub mod fault {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TEAR_NEXT_PUBLISH: AtomicBool = AtomicBool::new(false);
    static PANIC_NEXT_SWAP: AtomicBool = AtomicBool::new(false);

    /// The next [`super::ModelStore::publish`] crashes between the model
    /// write and the manifest commit, leaving a torn artifact.
    pub fn arm_tear_next_publish() {
        TEAR_NEXT_PUBLISH.store(true, Ordering::SeqCst);
    }

    /// The next [`super::ModelSlot::swap`] panics after taking the slot
    /// lock, before publication — the old model stays installed.
    pub fn arm_panic_next_swap() {
        PANIC_NEXT_SWAP.store(true, Ordering::SeqCst);
    }

    /// Disarm all lifecycle faults.
    pub fn clear() {
        TEAR_NEXT_PUBLISH.store(false, Ordering::SeqCst);
        PANIC_NEXT_SWAP.store(false, Ordering::SeqCst);
    }

    pub(crate) fn take_tear_publish() -> bool {
        TEAR_NEXT_PUBLISH.swap(false, Ordering::SeqCst)
    }

    pub(crate) fn maybe_panic_mid_swap() {
        if PANIC_NEXT_SWAP.swap(false, Ordering::SeqCst) {
            panic!("injected fault: panic mid-swap");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_load_swap_generations() {
        let m1 = Arc::new(tiny_model());
        let slot = ModelSlot::new(VersionedModel::new(1, Arc::clone(&m1)));
        assert_eq!(slot.version(), 1);
        let held = slot.load();
        let prev = slot.swap(VersionedModel::new(2, Arc::clone(&m1)));
        assert_eq!(prev.version, 1);
        assert_eq!(slot.version(), 2);
        // The pre-swap load still points at the old version.
        assert_eq!(held.version, 1);
    }

    #[test]
    fn divergence_zero_for_identical() {
        let s: ForecastSamples = vec![vec![vec![1.0, 2.0], vec![1.5, 2.5]]];
        assert_eq!(rank_divergence_milli(&s, &s), 0);
        let t: ForecastSamples = vec![vec![vec![2.0, 3.0], vec![2.5, 3.5]]];
        assert_eq!(rank_divergence_milli(&s, &t), 1000);
    }

    fn tiny_model() -> RankNet {
        use crate::config::RankNetConfig;
        use crate::rank_model::{RankModel, TargetKind};
        use crate::ranknet::RankNetVariant;
        let cfg = RankNetConfig {
            context_len: 4,
            prediction_len: 2,
            hidden_dim: 4,
            num_layers: 1,
            embedding_dim: 2,
            num_samples: 2,
            max_epochs: 1,
            batch_size: 4,
            ..RankNetConfig::default()
        };
        let rank_model = RankModel::new(cfg.clone(), TargetKind::RankOnly, 7);
        RankNet {
            variant: RankNetVariant::Oracle,
            cfg,
            rank_model,
            pit_model: None,
        }
    }
}
