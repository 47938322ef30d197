//! Failure injection: malformed or degenerate models must produce the right
//! `KalmanError`, never panics or silent garbage — and malformed wire
//! input must produce the right `WireError`, same rules.

use kalman::model::{generators, InfoHead};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn assert_invalid(result: Result<Smoothed, KalmanError>, expect_substr: &str) {
    match result {
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains(expect_substr),
                "error {msg:?} does not mention {expect_substr:?}"
            );
        }
        Ok(_) => panic!("expected failure mentioning {expect_substr:?}"),
    }
}

#[test]
fn empty_model_is_rejected_by_every_algorithm() {
    let model = LinearModel::new();
    assert_invalid(
        odd_even_smooth(&model, OddEvenOptions::default()),
        "no steps",
    );
    assert_invalid(
        paige_saunders_smooth(&model, SmootherOptions::default()),
        "no steps",
    );
    assert_invalid(rts_smooth(&model), "no steps");
    assert_invalid(
        associative_smooth(&model, AssociativeOptions::default()),
        "no steps",
    );
    assert_invalid(
        normal_equations_smooth(&model, TridiagMethod::Cholesky, ExecPolicy::Seq),
        "no steps",
    );
}

#[test]
fn negative_variance_is_rejected() {
    let mut model = generators::paper_benchmark(&mut rng(1), 2, 5, false);
    model.steps[2].observation.as_mut().unwrap().noise = CovarianceSpec::Diagonal(vec![1.0, -0.5]);
    match odd_even_smooth(&model, OddEvenOptions::default()) {
        Err(KalmanError::NotPositiveDefinite { step }) => assert_eq!(step, 2),
        other => panic!("expected not-PD at step 2, got {other:?}"),
    }
}

#[test]
fn indefinite_dense_covariance_is_rejected() {
    let mut model = generators::paper_benchmark(&mut rng(2), 2, 5, false);
    let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
    model.steps[3].evolution.as_mut().unwrap().noise = CovarianceSpec::Dense(indefinite);
    match paige_saunders_smooth(&model, SmootherOptions::default()) {
        Err(KalmanError::NotPositiveDefinite { step }) => assert_eq!(step, 3),
        other => panic!("expected not-PD at step 3, got {other:?}"),
    }
}

#[test]
fn dimension_mismatches_are_reported_with_step_index() {
    let mut model = generators::paper_benchmark(&mut rng(3), 3, 4, false);
    model.steps[2].evolution.as_mut().unwrap().f = Matrix::identity(4);
    assert_invalid(odd_even_smooth(&model, OddEvenOptions::default()), "step 2");

    let mut model2 = generators::paper_benchmark(&mut rng(4), 3, 4, false);
    model2.steps[1].observation.as_mut().unwrap().o = vec![0.0; 9];
    assert_invalid(
        odd_even_smooth(&model2, OddEvenOptions::default()),
        "step 1",
    );
}

#[test]
fn disconnected_state_reports_rank_deficiency_in_all_qr_paths() {
    let mut model = generators::paper_benchmark(&mut rng(5), 2, 8, false);
    // State 5 appears in no equation with nonzero coefficients.
    model.steps[5].evolution.as_mut().unwrap().h = Some(Matrix::zeros(2, 2));
    model.steps[5].observation = None;
    model.steps[6].evolution.as_mut().unwrap().f = Matrix::zeros(2, 2);

    match odd_even_smooth(&model, OddEvenOptions::default()) {
        Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 5),
        other => panic!("odd-even: expected rank deficiency, got {other:?}"),
    }
    match paige_saunders_smooth(&model, SmootherOptions::default()) {
        Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 5),
        other => panic!("paige-saunders: expected rank deficiency, got {other:?}"),
    }
    match normal_equations_smooth(&model, TridiagMethod::CyclicReduction, ExecPolicy::Seq) {
        Err(KalmanError::RankDeficient { .. }) | Err(KalmanError::NotPositiveDefinite { .. }) => {}
        other => panic!("normal equations: expected failure, got {other:?}"),
    }
}

#[test]
fn prior_requirement_errors_are_specific() {
    let model = generators::paper_benchmark(&mut rng(6), 2, 5, false);
    assert!(matches!(
        rts_smooth(&model),
        Err(KalmanError::PriorRequired)
    ));
    assert!(matches!(
        associative_smooth(&model, AssociativeOptions::default()),
        Err(KalmanError::PriorRequired)
    ));
    // The QR smoothers do not require a prior.
    assert!(odd_even_smooth(&model, OddEvenOptions::default()).is_ok());
}

#[test]
fn nonuniform_models_rejected_only_where_unsupported() {
    let mut model = generators::dimension_change(&mut rng(7), 2, 6);
    model.set_prior(vec![0.0; 2], CovarianceSpec::Identity(2));
    assert!(matches!(
        rts_smooth(&model),
        Err(KalmanError::UnsupportedStructure(_))
    ));
    assert!(matches!(
        associative_smooth(&model, AssociativeOptions::default()),
        Err(KalmanError::UnsupportedStructure(_))
    ));
    assert!(odd_even_smooth(&model, OddEvenOptions::default()).is_ok());
    assert!(paige_saunders_smooth(&model, SmootherOptions::default()).is_ok());
}

#[test]
fn errors_are_displayable_and_chainable() {
    use std::error::Error;
    let e = KalmanError::RankDeficient { state: 4 };
    assert!(e.to_string().contains("state 4"));
    let dense_err = KalmanError::from(kalman::dense::DenseError::Singular { index: 1 });
    assert!(dense_err.source().is_some());
}

#[test]
fn zero_state_dimension_is_invalid() {
    let mut model = LinearModel::new();
    model.push_step(LinearStep::initial(0));
    assert_invalid(
        odd_even_smooth(&model, OddEvenOptions::default()),
        "zero state dimension",
    );
}

/// A state dimension that no data backs — the column count of a zero-row
/// snapshot head, or of a zero-row `H` — is refused with a typed
/// `KalmanError::Stream` where it enters a stream.  Accepted, it passed
/// every shape check, and the next flush or `smoothed()` sized `n × n`
/// blocks by it: an allocation failure, which aborts the process instead of
/// panicking.  Each sequence below is written as a client would drive it,
/// so a regression aborts this test binary rather than failing one test.
#[test]
fn hostile_state_dimension_is_refused_with_a_typed_error() {
    use kalman::stream::MAX_STATE_DIM;
    use kalman::wire::{codec, Reader, WireError, Writer};

    let hostile = u32::MAX as usize;
    let opts = StreamOptions {
        lag: 8,
        flush_every: 4,
        covariances: true,
        ..StreamOptions::default()
    };
    let empty_obs = |n: usize| Observation {
        g: Matrix::zeros(0, n),
        o: Vec::new(),
        noise: CovarianceSpec::Identity(0),
    };
    let obs = |v: f64| Observation {
        g: Matrix::identity(2),
        o: vec![v; 2],
        noise: CovarianceSpec::Identity(2),
    };
    // A zero-row evolution from a `from`- to a `to`-dimensional state.
    let empty_evo = |from: usize, to: usize| Evolution {
        f: Matrix::zeros(0, from),
        h: Some(Matrix::zeros(0, to)),
        c: Vec::new(),
        noise: CovarianceSpec::Identity(0),
    };
    let refused = |r: Result<Smoothed, KalmanError>| match r {
        Err(KalmanError::Stream(msg)) => assert!(msg.contains("MAX_STATE_DIM"), "{msg}"),
        other => panic!("expected a Stream error, got {:?}", other.err()),
    };
    let head = |n: usize| WindowSnapshot {
        index: 7,
        head: InfoHead::from_rows(Matrix::zeros(0, n), Matrix::zeros(0, 1)),
        base_emitted: true,
        events: Vec::new(),
    };

    // 1. A finished stream's head with no rows on a (2³² − 1)-dimensional
    // state.
    let resumed = StreamingSmoother::restore(head(hostile), opts).and_then(|mut stream| {
        stream.observe(empty_obs(hostile))?;
        stream.evolve(empty_evo(hostile, hostile))?;
        stream.smoothed()
    });
    refused(resumed);
    // The same head off the wire: a 24-byte payload.
    let mut w = Writer::new();
    w.put_u64(7);
    codec::encode_matrix(&mut w, &Matrix::zeros(0, hostile));
    codec::encode_matrix(&mut w, &Matrix::zeros(0, 1));
    assert_eq!(w.len(), 24);
    match codec::decode_window_snapshot(&mut Reader::new(w.as_slice())) {
        Err(WireError::Malformed(msg)) => assert!(msg.contains("MAX_STATE_DIM"), "{msg}"),
        other => panic!("expected Malformed, got {:?}", other.map(|c| c.index)),
    }
    // The bound itself is a valid dimension; one above it is not.
    head(MAX_STATE_DIM).validate().unwrap();
    assert!(matches!(
        head(MAX_STATE_DIM + 1).validate(),
        Err(KalmanError::Stream(_))
    ));
    assert!(matches!(
        StreamingSmoother::new(MAX_STATE_DIM + 1, opts),
        Err(KalmanError::Stream(_))
    ));

    // 2. A live stream evolved through a zero-row `F` and `H`.  The event
    // is refused before the stream is touched, and the stream goes on.
    let mut stream =
        StreamingSmoother::with_prior(vec![0.0; 2], CovarianceSpec::Identity(2), opts).unwrap();
    stream.observe(obs(0.5)).unwrap();
    let evolved = stream.evolve(empty_evo(2, hostile)).and_then(|_| {
        stream.observe(empty_obs(hostile))?;
        stream.evolve(empty_evo(hostile, hostile))?;
        stream.smoothed()
    });
    refused(evolved);
    assert_eq!(stream.state_dim(), 2);
    assert_eq!(stream.next_index(), 1);
    for i in 1..12 {
        stream.evolve(Evolution::random_walk(2)).unwrap();
        stream.observe(obs(i as f64)).unwrap();
    }
    let flushed = stream.flush().unwrap();
    let (rest, ckpt) = stream.finish().unwrap();
    assert_eq!(flushed.len() + rest.len(), 12);
    assert_eq!(ckpt.state_dim(), 2);
}

// ---- wire-level failure injection -------------------------------------
//
// The framed transport must turn every class of malformed input into its
// specific typed `WireError` — truncation, corruption, version skew, and
// hostile length prefixes — without panicking and without buffering
// unbounded garbage.  (The cross-process recovery consequences of these
// faults are pinned in `tests/cluster.rs`; this is the codec contract.)

mod wire_faults {
    use kalman::wire::{
        frame_bytes, FrameReader, Progress, WireError, DEFAULT_MAX_FRAME, HEADER_LEN, VERSION,
    };

    /// A healthy frame to mutate.
    fn good_frame() -> Vec<u8> {
        frame_bytes(7, b"finalized step payload")
    }

    /// Feeds bytes to a `FrameReader` and returns the first error.
    fn first_error(bytes: &[u8]) -> WireError {
        let mut reader = FrameReader::new(std::io::Cursor::new(bytes.to_vec()));
        loop {
            match reader.poll() {
                Ok(Progress::Frame { .. }) => continue,
                Ok(Progress::Closed) => panic!("stream ended without the expected error"),
                Ok(Progress::Pending) => unreachable!("Cursor never blocks"),
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn truncated_frame_is_a_typed_error() {
        let frame = good_frame();
        // Cut inside the header and inside the payload: both must report
        // truncation (with how much was missing), not hang or panic.
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, frame.len() - 1] {
            match first_error(&frame[..cut]) {
                WireError::Truncated { needed, have } => {
                    assert!(have < needed, "cut at {cut}: have {have} < needed {needed}")
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_payload_is_a_crc_error() {
        let mut frame = good_frame();
        let byte = HEADER_LEN + 5;
        frame[byte] ^= 0x10;
        assert!(
            matches!(first_error(&frame), WireError::BadCrc { .. }),
            "payload corruption must fail the checksum"
        );
    }

    #[test]
    fn wrong_version_is_a_version_error() {
        let mut frame = good_frame();
        // Bytes 4..6 are the little-endian format version.
        frame[4] = 0xEE;
        frame[5] = 0x03;
        match first_error(&frame) {
            WireError::VersionMismatch { got, supported } => {
                assert_eq!(got, 0x03EE);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut frame = good_frame();
        // Bytes 8..12 are the little-endian payload length: claim 4 GiB.
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match first_error(&frame) {
            WireError::Oversized { len, max } => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = good_frame();
        frame[0] = b'X';
        assert!(matches!(first_error(&frame), WireError::BadMagic(_)));
    }
}
