//! Property tests for the stream snapshot and the wire codecs: round trips
//! over randomized dimensions, lags, and head shapes must be bitwise
//! lossless, and inconsistent heads must be rejected at the trust boundary
//! with a stream-layer error (a wire error off the wire).

use kalman_dense::Matrix;
use kalman_model::{generators, CovarianceSpec, InfoHead, KalmanError, StreamEvent};
use kalman_stream::{StreamOptions, StreamingSmoother, WindowSnapshot};
use kalman_wire::{codec, Reader, WireError, Writer};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Drives a random model through a streaming smoother and returns the
/// finished stream's snapshot — a *real* head (condensed R-factor,
/// `r ≤ n`), not a synthetic matrix pair.
fn finished_snapshot(seed: u64, dim: usize, steps: usize, lag: usize) -> WindowSnapshot {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = generators::paper_benchmark(&mut rng, dim, steps, true);
    let opts = StreamOptions {
        lag,
        flush_every: 1 + (seed as usize % 4),
        covariances: false,
        ..StreamOptions::default()
    };
    let p = model.prior.as_ref().unwrap();
    let mut stream = StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
    for (i, step) in model.steps.iter().enumerate() {
        if i > 0 {
            stream.evolve(step.evolution.clone().unwrap()).unwrap();
        }
        if let Some(obs) = &step.observation {
            stream.observe(obs.clone()).unwrap();
        }
    }
    let (_, ckpt) = stream.finish().unwrap();
    ckpt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reassembling a finished stream's snapshot from its head's rows
    /// reproduces it bit for bit, across state dimensions, stream lengths,
    /// and lags — and so does a trip through the wire codec.
    #[test]
    fn checkpoint_parts_round_trip_bitwise(
        seed in 0u64..10_000,
        dim in 1usize..5,
        steps in 1usize..30,
        lag in 1usize..12,
    ) {
        let ckpt = finished_snapshot(seed, dim, steps, lag);
        let index = ckpt.index;
        let (c, d) = ckpt.head.rows_ref();
        let (c, d) = (c.clone(), d.clone());
        prop_assert!(c.rows() <= c.cols(), "head is a condensation: r <= n");

        prop_assert!(ckpt.base_emitted && ckpt.events.is_empty());
        let (c2, d2) = ckpt.head.clone().into_rows();
        prop_assert_eq!(bits(&c2), bits(&c));
        prop_assert_eq!(bits(&d2), bits(&d));

        let rebuilt = WindowSnapshot {
            index,
            head: InfoHead::from_rows(c2, d2),
            base_emitted: true,
            events: Vec::new(),
        };
        rebuilt.validate().unwrap();
        let (rc, rd) = rebuilt.head.rows_ref();
        prop_assert_eq!(rebuilt.index, index);
        prop_assert_eq!(bits(rc), bits(&c));
        prop_assert_eq!(bits(rd), bits(&d));

        // Through the byte-level codec as well.
        let mut w = Writer::new();
        codec::encode_window_snapshot(&mut w, &rebuilt);
        let mut r = Reader::new(w.as_slice());
        let decoded = codec::decode_window_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        let (dc, dd) = decoded.head.rows_ref();
        prop_assert_eq!(decoded.index, index);
        prop_assert_eq!(bits(dc), bits(&c));
        prop_assert_eq!(bits(dd), bits(&d));
    }

    /// Every class of inconsistent head is rejected with
    /// `KalmanError::Stream` by `validate` and `restore`, and with
    /// `WireError::Malformed` off the wire — the trust boundary must never
    /// let a malformed head panic downstream or masquerade as a model
    /// error.
    #[test]
    fn validate_rejects_inconsistent_shapes(
        rows in 0usize..5,
        cols in 0usize..5,
        extra in 1usize..4,
    ) {
        let refused = |c: Matrix, d: Matrix| {
            let snap = WindowSnapshot {
                index: 0,
                head: InfoHead::from_rows(c, d),
                base_emitted: true,
                events: Vec::new(),
            };
            let mut w = Writer::new();
            codec::encode_window_snapshot(&mut w, &snap);
            matches!(snap.validate(), Err(KalmanError::Stream(_)))
                && matches!(
                    codec::decode_window_snapshot(&mut Reader::new(w.as_slice())),
                    Err(WireError::Malformed(_))
                )
                && matches!(
                    StreamingSmoother::restore(snap, StreamOptions::default()),
                    Err(KalmanError::Stream(_))
                )
        };
        // Row-count mismatch between C and d.
        prop_assert!(refused(
            Matrix::zeros(rows, cols.max(1)),
            Matrix::zeros(rows + extra, 1),
        ));
        // d wider than one column.
        prop_assert!(refused(
            Matrix::zeros(rows, cols.max(1)),
            Matrix::zeros(rows, 1 + extra),
        ));
        // Zero state dimension.
        prop_assert!(refused(Matrix::zeros(rows, 0), Matrix::zeros(rows, 1)));
        // More rows than the state dimension (not a condensed R-factor).
        prop_assert!(refused(
            Matrix::zeros(cols.max(1) + extra, cols.max(1)),
            Matrix::zeros(cols.max(1) + extra, 1),
        ));
    }

    /// Snapshot round trips through the wire codec are bitwise lossless,
    /// including the replay events.
    #[test]
    fn window_snapshot_codec_round_trip(
        seed in 0u64..10_000,
        dim in 1usize..4,
        steps in 2usize..25,
        lag in 2usize..10,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = generators::paper_benchmark(&mut rng, dim, steps, true);
        let opts = StreamOptions { lag, flush_every: 3, covariances: false, ..StreamOptions::default() };
        let p = model.prior.as_ref().unwrap();
        let mut stream =
            StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
        for (i, step) in model.steps.iter().enumerate() {
            if i > 0 {
                stream.evolve(step.evolution.clone().unwrap()).unwrap();
            }
            if let Some(obs) = &step.observation {
                stream.observe(obs.clone()).unwrap();
            }
        }
        let snap = stream.snapshot().unwrap();

        let mut w = Writer::new();
        codec::encode_window_snapshot(&mut w, &snap);
        let mut r = Reader::new(w.as_slice());
        let back = codec::decode_window_snapshot(&mut r).unwrap();
        r.finish().unwrap();

        prop_assert_eq!(back.index, snap.index);
        prop_assert_eq!(back.base_emitted, snap.base_emitted);
        let (sc, sd) = snap.head.rows_ref();
        let (bc, bd) = back.head.rows_ref();
        prop_assert_eq!(bits(bc), bits(sc));
        prop_assert_eq!(bits(bd), bits(sd));
        prop_assert_eq!(back.events.len(), snap.events.len());
        for (a, b) in snap.events.iter().zip(&back.events) {
            match (a, b) {
                (StreamEvent::Evolve(x), StreamEvent::Evolve(y)) => {
                    prop_assert_eq!(bits(&x.f), bits(&y.f));
                }
                (StreamEvent::Observe(x), StreamEvent::Observe(y)) => {
                    prop_assert_eq!(bits(&x.g), bits(&y.g));
                    let xo: Vec<u64> = x.o.iter().map(|v| v.to_bits()).collect();
                    let yo: Vec<u64> = y.o.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(xo, yo);
                }
                _ => prop_assert!(false, "event variant changed in flight"),
            }
        }
        // The restored stream accepts the decoded snapshot.
        let restored = StreamingSmoother::restore(back, opts).unwrap();
        prop_assert_eq!(restored.next_index(), stream.next_index());
    }
}

/// `CovarianceSpec::Dense` also survives the codec (the proptest above
/// only exercises the generator's spec mix).
#[test]
fn dense_covariance_round_trips() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let spd = kalman_dense::random::spd(&mut rng, 3);
    let mut w = Writer::new();
    codec::encode_cov(&mut w, &CovarianceSpec::Dense(spd.clone()));
    let mut r = Reader::new(w.as_slice());
    match codec::decode_cov(&mut r).unwrap() {
        CovarianceSpec::Dense(m) => assert_eq!(bits(&m), bits(&spd)),
        other => panic!("variant changed: {other:?}"),
    }
    r.finish().unwrap();
}
