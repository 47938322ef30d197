//! The batch Paige–Saunders baseline *is* the serving sweep: a covariance
//! stream whose lag covers the whole chain, fed the model's events and
//! finished, returns bitwise what `paige_saunders_smooth` returns — means
//! and covariances — at the fixed-size orders (n = 4, 8) and the general
//! ones (n = 3, 16), with and without a prior, through unobserved steps and
//! dimension changes.  And the NC variant's means are bitwise the
//! covariance variant's.

use kalman::model::{events_of, generators, LinearModel};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every step of `model` as a covariance stream with a lag longer than the
/// chain finalizes it: all of it at `finish`, from one downward sweep.
fn streamed(model: &LinearModel) -> Vec<FinalizedStep> {
    let opts = StreamOptions {
        lag: model.num_states() + 1,
        flush_every: 4,
        covariances: true,
        ..StreamOptions::default()
    };
    let mut stream = match &model.prior {
        Some(p) => StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap(),
        None => StreamingSmoother::new(model.steps[0].state_dim, opts).unwrap(),
    };
    for event in events_of(model) {
        assert!(
            stream.ingest(event).unwrap().is_empty(),
            "nothing finalizes early"
        );
    }
    stream.finish().unwrap().0
}

fn models() -> Vec<(String, LinearModel)> {
    let mut out = Vec::new();
    for (n, k) in [(3usize, 30usize), (4, 40), (8, 25), (16, 12)] {
        for prior in [false, true] {
            let model =
                generators::paper_benchmark(&mut rng(n as u64 * 10 + k as u64), n, k, prior);
            out.push((format!("n {n} prior {prior}"), model));
        }
    }
    out.push((
        "sparse observations".into(),
        generators::sparse_observations(&mut rng(7), 4, 30, 3),
    ));
    out.push((
        "dimension change".into(),
        generators::dimension_change(&mut rng(8), 3, 20),
    ));
    out
}

#[test]
fn paige_saunders_is_bitwise_a_stream_that_covers_the_chain() {
    for (what, model) in models() {
        let batch = paige_saunders_smooth(&model, SmootherOptions { covariances: true }).unwrap();
        let covs = batch.covariances.as_ref().unwrap();
        let steps = streamed(&model);
        assert_eq!(steps.len(), model.num_states(), "{what}");
        for step in &steps {
            let i = step.index as usize;
            assert_eq!(bits(&step.mean), bits(&batch.means[i]), "{what}: mean {i}");
            let cov = step.covariance.as_ref().unwrap();
            assert_eq!(
                bits(cov.as_slice()),
                bits(covs[i].as_slice()),
                "{what}: covariance {i}"
            );
        }
    }
}

#[test]
fn nc_means_are_bitwise_the_covariance_variants() {
    for (what, model) in models() {
        let full = paige_saunders_smooth(&model, SmootherOptions { covariances: true }).unwrap();
        let nc = paige_saunders_smooth(&model, SmootherOptions { covariances: false }).unwrap();
        assert!(nc.covariances.is_none(), "{what}");
        for (i, (a, b)) in full.means.iter().zip(&nc.means).enumerate() {
            assert_eq!(bits(a), bits(b), "{what}: mean {i}");
        }
    }
}
