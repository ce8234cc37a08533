//! Serving-layer tuning knobs.

use std::time::Duration;

/// Scheduler configuration for [`crate::serve`], applied to every shard of
/// [`crate::serve_sharded`].
///
/// None of these knobs can change a forecast value — they move requests
/// between batches and workers, and the engine's determinism contract
/// (draws keyed on request identity, never batch position) makes that
/// placement invisible in the output bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads draining the submission queue.
    pub workers: usize,
    /// Coalesce up to this many queued requests into one engine batch call.
    pub max_batch: usize,
    /// Hold an under-full batch open this long, measured from its oldest
    /// request's arrival, before dispatching it anyway.
    pub max_delay: Duration,
    /// Bounded submission queue: a submission that would push the queue
    /// past this depth is rejected with a typed error instead of blocking.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 16,
            max_delay: Duration::from_micros(500),
            queue_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// Clamp every knob to its sane minimum (1 worker, batches of at least
    /// one, a queue that admits at least one request).
    pub fn normalized(mut self) -> ServeConfig {
        self.workers = self.workers.max(1);
        self.max_batch = self.max_batch.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }
}

/// Shard layout for [`crate::serve_sharded`]: how many race shards the
/// region splits into. Kept separate from [`ServeConfig`], which applies
/// per shard; [`crate::serve`] is the one-shard layout.
///
/// Like the scheduler knobs, the topology cannot change a forecast value:
/// shard 0 runs the caller's engine and every other shard a fork with the
/// same seed, and the router only decides *where* a request is served,
/// never *what* it answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardTopology {
    /// Number of race shards (each with its own engine, mailbox, workers
    /// and supervisor; shard 0's engine is the caller's).
    pub shards: usize,
}

impl Default for ShardTopology {
    fn default() -> Self {
        ShardTopology { shards: 1 }
    }
}

impl ShardTopology {
    pub fn new(shards: usize) -> ShardTopology {
        ShardTopology { shards }
    }

    /// Clamp to at least one shard.
    pub fn normalized(mut self) -> ShardTopology {
        self.shards = self.shards.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_topology_normalizes_to_one() {
        assert_eq!(ShardTopology::new(0).normalized().shards, 1);
        assert_eq!(ShardTopology::default().shards, 1);
        assert_eq!(ShardTopology::new(4).normalized().shards, 4);
    }

    #[test]
    fn normalized_enforces_minimums() {
        let cfg = ServeConfig {
            workers: 0,
            max_batch: 0,
            queue_capacity: 0,
            max_delay: Duration::ZERO,
        }
        .normalized();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.queue_capacity, 1);
    }
}
