//! The shard host: what one shard slot does with each logged entry.
//!
//! The worker's frame handler ([`crate::worker`]) runs one [`ShardHost`],
//! in a worker process and behind an in-memory link (a degraded slot, or
//! a simulated supervisor's slot) alike, so every slot applies inserts,
//! events and finishes the same way and reports the same outputs and the
//! same stream errors.  A stream restored after a crash is an ordinary
//! insert, of the [`crate::StreamInit::Resume`] spec the host itself built
//! for the last acked snapshot.  The host only banks what it produced;
//! the handler ships the banks as frames.

use crate::proto::{StreamInit, StreamSpec};
use kalman_model::{KalmanError, StreamEvent};
use kalman_par::ExecPolicy;
use kalman_serve::{Ingress, ServeConfig, ShardedPool};
use kalman_stream::{FinalizedStep, WindowSnapshot};

/// One shard: a single-shard [`ShardedPool`], its [`Ingress`], and the
/// outputs and stream errors not yet handed on.
pub(crate) struct ShardHost {
    pool: ShardedPool,
    ingress: Ingress,
    /// Finalized outputs in emission order, not yet handed on.
    pub(crate) outputs: Vec<(u64, FinalizedStep)>,
    /// Stream-level errors (`key`, message), not yet handed on.
    pub(crate) errors: Vec<(u64, String)>,
}

impl ShardHost {
    /// An empty shard with a `queue_capacity`-bounded ingestion queue.
    pub(crate) fn new(queue_capacity: usize, policy: ExecPolicy) -> ShardHost {
        let (pool, ingress) = ShardedPool::new(ServeConfig {
            shards: 1,
            queue_capacity,
            policy,
        });
        ShardHost {
            pool,
            ingress,
            outputs: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Registers the stream `spec` describes; a spec that does not build
    /// (or a duplicate key) becomes a stream error.
    pub(crate) fn insert(&mut self, key: u64, spec: StreamSpec) {
        let result = spec
            .build()
            .and_then(|stream| self.pool.insert(key, stream));
        if let Err(e) = result {
            self.errors.push((key, e.to_string()));
        }
    }

    /// Queues one event.  On backpressure the queue is drained and the
    /// submit retried once; a retry that still fails (or a closed
    /// ingress) becomes a stream error.
    pub(crate) fn event(&mut self, key: u64, event: StreamEvent) {
        match self.ingress.try_submit(key, event) {
            Ok(()) => {}
            Err(e) if e.is_would_block() => {
                self.drain();
                if self.ingress.try_submit(key, e.into_event()).is_err() {
                    self.errors.push((key, "queue full after drain".into()));
                }
            }
            Err(_) => self.errors.push((key, "ingress closed".into())),
        }
    }

    /// Applies everything queued and banks the outputs and errors.
    pub(crate) fn drain(&mut self) {
        self.pool.drain();
        for (key, entry) in self.pool.outputs() {
            match entry.result() {
                Ok(steps) => self.outputs.extend(steps.iter().cloned().map(|s| (key, s))),
                Err(e) => self.errors.push((key, e.to_string())),
            }
        }
        for (key, err) in self.pool.last_errors() {
            self.errors.push((*key, err.to_string()));
        }
    }

    /// Finishes a stream.  Call it after [`ShardHost::drain`] (the
    /// stream's last events may still be queued), and hand on the banked
    /// outputs before the tail.
    pub(crate) fn finish(
        &mut self,
        key: u64,
    ) -> kalman_model::Result<(Vec<FinalizedStep>, WindowSnapshot)> {
        self.pool.finish(key)
    }

    /// Every resident stream as the spec that restores it (its snapshot
    /// under its own options), one at a time.  Call it after
    /// [`ShardHost::drain`], so the snapshots cover every queued event.
    pub(crate) fn resume_specs(
        &self,
    ) -> impl ExactSizeIterator<Item = kalman_model::Result<(u64, StreamSpec)>> + '_ {
        let keys: Vec<u64> = self.pool.keys().collect();
        keys.into_iter().map(|key| {
            let stream = (self.pool.stream(key))
                .ok_or_else(|| KalmanError::Stream(format!("key {key} vanished")))?;
            let init = StreamInit::Resume {
                snapshot: stream.snapshot()?,
            };
            let opts = *stream.options();
            Ok((key, StreamSpec { init, opts }))
        })
    }
}
