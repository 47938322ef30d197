//! Inputs, all derived from `--seed`: the program under test only ever
//! sees the generated models and events.

use crate::spec::Spec;
use kalman::dense::Matrix;
use kalman::model::{generators::paper_benchmark, LinearModel, LinearStep, StreamEvent};
use kalman::prelude::{CovarianceSpec, Evolution, Observation, StreamingSmoother};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::rc::Rc;

/// An independent generator per (seed, purpose, index).
fn rng(seed: u64, purpose: u64, index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose << 32)
            .wrapping_add(index),
    )
}

/// The paper's §5.2 problem: `k + 1` states, random orthonormal `F` and
/// `G`, unit covariances, Gaussian observations, standard-normal prior.
/// Dense matrices, unlike the identity `F`/`G` of a random walk, so the
/// kernels see real data.
pub fn batch_model(seed: u64, n: usize, k: usize) -> LinearModel {
    paper_benchmark(&mut rng(seed, 1, 0), n, k, true)
}

/// One stream's events in compact form: the stream's fixed `F` and `G`
/// and every step's observation vector.  Events are materialized one at a
/// time as they are handed over, the way a front-end decodes them off the
/// network, so what a run keeps resident is the events in flight and not
/// the whole schedule (tens of MB otherwise).
pub struct Source {
    f: Matrix,
    g: Matrix,
    observations: Vec<f64>,
}

impl Source {
    /// Events in the stream: an `Observe`, then `Evolve`/`Observe` pairs.
    pub fn len(&self) -> usize {
        2 * (self.observations.len() / self.g.rows()) - 1
    }

    /// Event `e`: odd events create step `(e + 1) / 2`, even ones observe
    /// step `e / 2`.
    pub fn event(&self, e: usize) -> StreamEvent {
        let n = self.g.rows();
        if e % 2 == 1 {
            StreamEvent::Evolve(Evolution {
                f: self.f.clone(),
                h: None,
                c: vec![0.0; n],
                noise: CovarianceSpec::Identity(n),
            })
        } else {
            StreamEvent::Observe(Observation {
                g: self.g.clone(),
                o: self.observations[e / 2 * n..][..n].to_vec(),
                noise: CovarianceSpec::Identity(n),
            })
        }
    }
}

/// The first `end` events of a [`Source`], by value.
pub struct Events {
    source: Rc<Source>,
    next: usize,
    end: usize,
}

impl Events {
    pub fn new(source: &Rc<Source>, limit: usize) -> Events {
        Events {
            source: Rc::clone(source),
            next: 0,
            end: limit.min(source.len()),
        }
    }
}

impl Iterator for Events {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        (self.next < self.end).then(|| {
            self.next += 1;
            self.source.event(self.next - 1)
        })
    }
}

/// One source per stream, each the paper's §5.2 problem with its own `F`,
/// `G` and observations (the prior travels in the stream's constructor).
pub fn stream_sources(seed: u64, spec: &Spec, steps: usize) -> Vec<Rc<Source>> {
    (0..spec.streams as u64)
        .map(|s| {
            let model = paper_benchmark(&mut rng(seed, 2, s), spec.n, steps - 1, false);
            let evolution = model.steps[1].evolution.as_ref().expect("step 1 evolves");
            let observed =
                |step: &LinearStep| step.observation.clone().expect("every step observed");
            Rc::new(Source {
                f: evolution.f.clone(),
                g: observed(&model.steps[0]).g,
                observations: model
                    .steps
                    .iter()
                    .flat_map(|step| observed(step).o)
                    .collect(),
            })
        })
        .collect()
}

/// A fresh stream matching [`stream_events`]: standard-normal prior.
pub fn new_stream(spec: &Spec) -> StreamingSmoother {
    StreamingSmoother::with_prior(
        vec![0.0; spec.n],
        CovarianceSpec::Identity(spec.n),
        spec.stream_options(),
    )
    .expect("workload stream options are valid")
}

/// Per-stream phase-B start offsets as fractions in `[0, 1)` of two flush
/// periods, so the streams' flushes are spread instead of all landing in
/// the same drain.  Stratified: each stream gets its own slot (a seeded
/// permutation) and a seeded position in the slot's first half, so how
/// many flushes collide does not depend on the seed.
pub fn start_offsets(seed: u64, streams: usize) -> Vec<f64> {
    let mut r = rng(seed, 3, 0);
    let mut slots: Vec<usize> = (0..streams).collect();
    for i in (1..streams).rev() {
        slots.swap(i, (r.random::<u64>() % (i as u64 + 1)) as usize);
    }
    slots
        .iter()
        .map(|slot| (*slot as f64 + 0.5 * r.random::<f64>()) / streams as f64)
        .collect()
}

/// FNV-1a over the wire encoding of every event: two runs with the same
/// seed must feed the program the same bytes.
#[cfg(test)]
pub fn events_hash(sources: &[Rc<Source>]) -> u64 {
    let mut w = kalman::wire::Writer::new();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for event in sources.iter().flat_map(|s| Events::new(s, usize::MAX)) {
        w.clear();
        kalman::wire::codec::encode_event(&mut w, &event);
        for b in w.as_slice() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_event_bytes_other_seed_other_bytes() {
        let spec = WORKLOADS[1];
        let a = events_hash(&stream_sources(11, &spec, 20));
        let b = events_hash(&stream_sources(11, &spec, 20));
        let c = events_hash(&stream_sources(12, &spec, 20));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(start_offsets(11, 8), start_offsets(11, 8));
        assert_ne!(start_offsets(11, 8), start_offsets(12, 8));
        let mut slots: Vec<usize> = start_offsets(11, 8)
            .iter()
            .map(|f| (f * 8.0) as usize)
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn streams_differ_and_have_two_events_per_step() {
        let spec = WORKLOADS[1];
        let sources = stream_sources(5, &spec, 10);
        assert_eq!(sources.len(), spec.streams);
        assert!(sources.iter().all(|s| s.len() == 2 * 10 - 1));
        assert_ne!(events_hash(&sources[..1]), events_hash(&sources[1..2]));
        // Materialized on demand, the events are the library generator's.
        let model = paper_benchmark(&mut rng(5, 2, 3), spec.n, 9, false);
        let direct = kalman::model::events_of(&model);
        let lazy: Vec<StreamEvent> = Events::new(&sources[3], usize::MAX).collect();
        assert_eq!(format!("{direct:?}"), format!("{lazy:?}"));
    }
}
