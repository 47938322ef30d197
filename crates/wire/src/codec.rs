//! Value codecs: the binary layout of every type that crosses a process
//! boundary.  Each `encode_*` appends to a [`Writer`]; each `decode_*`
//! consumes from a [`Reader`] and validates as it goes — dimension
//! products are bounds-checked against the remaining input *before* any
//! storage is sized from them, so a corrupt length field cannot provoke a
//! huge allocation, and semantic validation (e.g. checkpoint part shapes)
//! runs through the same fallible constructors the in-process API uses.
//!
//! Layout conventions: integers little-endian; `f64` as exact IEEE-754
//! bit patterns (round trips are bitwise); matrices as
//! `rows:u32 cols:u32 data:[f64; rows·cols]` in column-major order;
//! options as a `0/1` presence byte; enums as a leading tag byte.

use crate::buf::{Reader, Writer};
use crate::error::{Result, WireError};
use kalman_dense::Matrix;
use kalman_model::{CovarianceSpec, Evolution, Observation, StreamEvent};
use kalman_par::ExecPolicy;
use kalman_stream::{
    BackendPolicy, Checkpoint, FinalizedStep, LagPolicy, StreamOptions, WindowSnapshot,
};

/// Appends a matrix (`rows`, `cols`, column-major data).
pub fn encode_matrix(w: &mut Writer, m: &Matrix) {
    w.put_u32(m.rows() as u32);
    w.put_u32(m.cols() as u32);
    for &v in m.as_slice() {
        // Qualified: a bare `.put_f64(…)` would alias the dense workspace
        // pool's `put_f64` in the name-resolved lint call graph.
        Writer::put_f64(w, v);
    }
}

/// Decodes a matrix, bounding the element count by the bytes actually
/// present before sizing any storage.
pub fn decode_matrix(r: &mut Reader<'_>) -> Result<Matrix> {
    let rows = r.get_u32()? as usize;
    let cols = r.get_u32()? as usize;
    let elems = rows
        .checked_mul(cols)
        .ok_or(WireError::Malformed("matrix dimension overflow".into()))?;
    let needed = elems
        .checked_mul(8)
        .ok_or(WireError::Malformed("matrix dimension overflow".into()))?;
    if r.remaining() < needed {
        return Err(WireError::Truncated {
            needed,
            have: r.remaining(),
        });
    }
    let mut data = Vec::with_capacity(elems);
    for _ in 0..elems {
        data.push(r.get_f64()?);
    }
    Ok(Matrix::from_col_major(rows, cols, data))
}

/// Appends an `f64` vector (`len:u32` + bit patterns).
pub fn encode_vec_f64(w: &mut Writer, v: &[f64]) {
    w.put_u32(v.len() as u32);
    for &x in v {
        Writer::put_f64(w, x);
    }
}

/// Decodes an `f64` vector (length bounded by the remaining input).
pub fn decode_vec_f64(r: &mut Reader<'_>) -> Result<Vec<f64>> {
    let len = r.get_u32()? as usize;
    let needed = len
        .checked_mul(8)
        .ok_or(WireError::Malformed("vector length overflow".into()))?;
    if r.remaining() < needed {
        return Err(WireError::Truncated {
            needed,
            have: r.remaining(),
        });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.get_f64()?);
    }
    Ok(out)
}

/// Appends a UTF-8 string (`len:u32` + bytes).
pub fn encode_str(w: &mut Writer, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_bytes(s.as_bytes());
}

/// Decodes a UTF-8 string.
pub fn decode_string(r: &mut Reader<'_>) -> Result<String> {
    let len = r.get_u32()? as usize;
    let bytes = r.get_bytes(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| WireError::Malformed("string is not valid UTF-8".into()))
}

const COV_IDENTITY: u8 = 0;
const COV_SCALED: u8 = 1;
const COV_DIAGONAL: u8 = 2;
const COV_DENSE: u8 = 3;

/// Appends a covariance specification (tagged by variant).
pub fn encode_cov(w: &mut Writer, cov: &CovarianceSpec) {
    match cov {
        CovarianceSpec::Identity(n) => {
            w.put_u8(COV_IDENTITY);
            w.put_u32(*n as u32);
        }
        CovarianceSpec::ScaledIdentity(n, s) => {
            w.put_u8(COV_SCALED);
            w.put_u32(*n as u32);
            Writer::put_f64(w, *s);
        }
        CovarianceSpec::Diagonal(v) => {
            w.put_u8(COV_DIAGONAL);
            encode_vec_f64(w, v);
        }
        CovarianceSpec::Dense(m) => {
            w.put_u8(COV_DENSE);
            encode_matrix(w, m);
        }
    }
}

/// Decodes a covariance specification.
pub fn decode_cov(r: &mut Reader<'_>) -> Result<CovarianceSpec> {
    match r.get_u8()? {
        COV_IDENTITY => Ok(CovarianceSpec::Identity(r.get_u32()? as usize)),
        COV_SCALED => Ok(CovarianceSpec::ScaledIdentity(
            r.get_u32()? as usize,
            r.get_f64()?,
        )),
        COV_DIAGONAL => Ok(CovarianceSpec::Diagonal(decode_vec_f64(r)?)),
        COV_DENSE => Ok(CovarianceSpec::Dense(decode_matrix(r)?)),
        tag => Err(WireError::UnknownTag {
            what: "covariance",
            tag,
        }),
    }
}

/// Appends an evolution equation (`F`, optional `H`, `c`, noise).
pub fn encode_evolution(w: &mut Writer, evo: &Evolution) {
    encode_matrix(w, &evo.f);
    match &evo.h {
        Some(h) => {
            w.put_u8(1);
            encode_matrix(w, h);
        }
        None => w.put_u8(0),
    }
    encode_vec_f64(w, &evo.c);
    encode_cov(w, &evo.noise);
}

/// Decodes an evolution equation.
pub fn decode_evolution(r: &mut Reader<'_>) -> Result<Evolution> {
    let f = decode_matrix(r)?;
    let h = match r.get_u8()? {
        0 => None,
        1 => Some(decode_matrix(r)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "evolution H presence",
                tag,
            })
        }
    };
    let c = decode_vec_f64(r)?;
    let noise = decode_cov(r)?;
    Ok(Evolution { f, h, c, noise })
}

/// Appends an observation equation (`G`, `o`, noise).
pub fn encode_observation(w: &mut Writer, obs: &Observation) {
    encode_matrix(w, &obs.g);
    encode_vec_f64(w, &obs.o);
    encode_cov(w, &obs.noise);
}

/// Decodes an observation equation.
pub fn decode_observation(r: &mut Reader<'_>) -> Result<Observation> {
    let g = decode_matrix(r)?;
    let o = decode_vec_f64(r)?;
    let noise = decode_cov(r)?;
    Ok(Observation { g, o, noise })
}

const EVENT_EVOLVE: u8 = 0;
const EVENT_OBSERVE: u8 = 1;

/// Appends a stream event (tagged evolve/observe).
pub fn encode_event(w: &mut Writer, event: &StreamEvent) {
    match event {
        StreamEvent::Evolve(evo) => {
            w.put_u8(EVENT_EVOLVE);
            encode_evolution(w, evo);
        }
        StreamEvent::Observe(obs) => {
            w.put_u8(EVENT_OBSERVE);
            encode_observation(w, obs);
        }
    }
}

/// Decodes a stream event.
pub fn decode_event(r: &mut Reader<'_>) -> Result<StreamEvent> {
    match r.get_u8()? {
        EVENT_EVOLVE => Ok(StreamEvent::Evolve(decode_evolution(r)?)),
        EVENT_OBSERVE => Ok(StreamEvent::Observe(decode_observation(r)?)),
        tag => Err(WireError::UnknownTag {
            what: "stream event",
            tag,
        }),
    }
}

/// Appends a checkpoint in its transportable `(index, C, d)` form (the
/// exact whitened R-factor condensation; see [`Checkpoint::into_parts`]).
pub fn encode_checkpoint(w: &mut Writer, ckpt: &Checkpoint) {
    w.put_u64(ckpt.index);
    let (c, d) = ckpt.head.rows_ref();
    encode_matrix(w, c);
    encode_matrix(w, d);
}

/// Decodes a checkpoint, reassembling through the fallible
/// [`Checkpoint::from_parts`] — the trust boundary for condensed stream
/// state arriving off the wire.  Shape inconsistencies between the parts
/// and non-finite entries surface as [`WireError::Malformed`].
pub fn decode_checkpoint(r: &mut Reader<'_>) -> Result<Checkpoint> {
    let index = r.get_u64()?;
    let c = decode_matrix(r)?;
    let d = decode_matrix(r)?;
    Checkpoint::from_parts(index, c, d).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Appends a live-window snapshot: the head in checkpoint `(index, C, d)`
/// form, the base-emitted flag, and the buffered window as replay events.
pub fn encode_window_snapshot(w: &mut Writer, snap: &WindowSnapshot) {
    w.put_u64(snap.index);
    let (c, d) = snap.head.rows_ref();
    encode_matrix(w, c);
    encode_matrix(w, d);
    w.put_u8(snap.base_emitted as u8);
    w.put_u32(snap.events.len() as u32);
    for event in &snap.events {
        encode_event(w, event);
    }
}

/// Decodes a live-window snapshot.  The head passes through the same
/// [`Checkpoint::from_parts`] trust boundary as a checkpoint; events are
/// validated structurally here and semantically when
/// `StreamingSmoother::restore` replays them.
pub fn decode_window_snapshot(r: &mut Reader<'_>) -> Result<WindowSnapshot> {
    let index = r.get_u64()?;
    let c = decode_matrix(r)?;
    let d = decode_matrix(r)?;
    let head = Checkpoint::from_parts(index, c, d)
        .map_err(|e| WireError::Malformed(e.to_string()))?
        .head;
    let base_emitted = decode_bool(r, "base-emitted flag")?;
    let count = r.get_u32()? as usize;
    // Each event costs at least its tag byte; bound the reservation by the
    // input actually present so a corrupt count cannot size storage.
    if r.remaining() < count {
        return Err(WireError::Truncated {
            needed: count,
            have: r.remaining(),
        });
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(decode_event(r)?);
    }
    Ok(WindowSnapshot {
        index,
        head,
        base_emitted,
        events,
    })
}

/// Appends a finalized step (`index`, mean, optional covariance).
pub fn encode_finalized_step(w: &mut Writer, step: &FinalizedStep) {
    w.put_u64(step.index);
    encode_vec_f64(w, &step.mean);
    match &step.covariance {
        Some(cov) => {
            w.put_u8(1);
            encode_matrix(w, cov);
        }
        None => w.put_u8(0),
    }
}

/// Decodes a finalized step.
pub fn decode_finalized_step(r: &mut Reader<'_>) -> Result<FinalizedStep> {
    let index = r.get_u64()?;
    let mean = decode_vec_f64(r)?;
    let covariance = match r.get_u8()? {
        0 => None,
        1 => Some(decode_matrix(r)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "covariance presence",
                tag,
            })
        }
    };
    Ok(FinalizedStep {
        index,
        mean,
        covariance,
    })
}

const POLICY_SEQ: u8 = 0;
const POLICY_PAR: u8 = 1;

/// Appends an execution policy.
pub fn encode_exec_policy(w: &mut Writer, policy: ExecPolicy) {
    match policy {
        ExecPolicy::Seq => w.put_u8(POLICY_SEQ),
        ExecPolicy::Par { grain } => {
            w.put_u8(POLICY_PAR);
            w.put_u32(grain as u32);
        }
    }
}

/// Decodes an execution policy.
pub fn decode_exec_policy(r: &mut Reader<'_>) -> Result<ExecPolicy> {
    match r.get_u8()? {
        POLICY_SEQ => Ok(ExecPolicy::Seq),
        POLICY_PAR => Ok(ExecPolicy::Par {
            grain: (r.get_u32()? as usize).max(1),
        }),
        tag => Err(WireError::UnknownTag {
            what: "exec policy",
            tag,
        }),
    }
}

const LAG_NONE: u8 = 0;
/// The only lag-policy tag besides "none"; 2 named the adaptive policy
/// before it was withdrawn and now decodes as unknown.
const LAG_FIXED: u8 = 1;

/// Appends stream options (lag, hysteresis, covariances, policy, …).
pub fn encode_stream_options(w: &mut Writer, opts: &StreamOptions) {
    w.put_u32(opts.lag as u32);
    match opts.lag_policy {
        None => w.put_u8(LAG_NONE),
        Some(LagPolicy::Fixed(lag)) => {
            w.put_u8(LAG_FIXED);
            w.put_u32(lag as u32);
        }
    }
    w.put_u32(opts.flush_every as u32);
    w.put_u8(opts.covariances as u8);
    encode_exec_policy(w, opts.policy);
    w.put_u8(opts.auto_flush as u8);
    w.put_u8(match opts.backend {
        BackendPolicy::OddEven => BACKEND_ODD_EVEN,
    });
}

/// The only backend tag; 1–3 named the scan, RTS-fold and auto policies
/// before serving went back to one engine and now decode as unknown.
const BACKEND_ODD_EVEN: u8 = 0;

/// Decodes stream options.
pub fn decode_stream_options(r: &mut Reader<'_>) -> Result<StreamOptions> {
    let lag = r.get_u32()? as usize;
    let lag_policy = match r.get_u8()? {
        LAG_NONE => None,
        LAG_FIXED => Some(LagPolicy::Fixed(r.get_u32()? as usize)),
        tag => {
            return Err(WireError::UnknownTag {
                what: "lag policy",
                tag,
            })
        }
    };
    let flush_every = r.get_u32()? as usize;
    let covariances = decode_bool(r, "covariances flag")?;
    let policy = decode_exec_policy(r)?;
    let auto_flush = decode_bool(r, "auto-flush flag")?;
    let backend = match r.get_u8()? {
        BACKEND_ODD_EVEN => BackendPolicy::OddEven,
        tag => {
            return Err(WireError::UnknownTag {
                what: "backend policy",
                tag,
            })
        }
    };
    Ok(StreamOptions {
        lag,
        lag_policy,
        flush_every,
        covariances,
        policy,
        auto_flush,
        backend,
    })
}

/// Decodes a strict `0/1` boolean byte.
pub fn decode_bool(r: &mut Reader<'_>, what: &'static str) -> Result<bool> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::UnknownTag { what, tag }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::InfoHead;

    fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn matrix_round_trip_is_bitwise() {
        let m = Matrix::from_fn(3, 5, |i, j| (i as f64 + 1.0) / (j as f64 + 3.0));
        let mut w = Writer::new();
        encode_matrix(&mut w, &m);
        let mut r = Reader::new(w.as_slice());
        let back = decode_matrix(&mut r).unwrap();
        r.finish().unwrap();
        assert!(bits_eq(&m, &back));

        // Degenerate shapes survive too.
        for m in [
            Matrix::zeros(0, 4),
            Matrix::zeros(4, 0),
            Matrix::zeros(0, 0),
        ] {
            let mut w = Writer::new();
            encode_matrix(&mut w, &m);
            let back = decode_matrix(&mut Reader::new(w.as_slice())).unwrap();
            assert_eq!((back.rows(), back.cols()), (m.rows(), m.cols()));
        }
    }

    #[test]
    fn corrupt_matrix_dims_cannot_force_huge_allocations() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        w.put_u32(u32::MAX);
        w.put_f64(1.0);
        let mut r = Reader::new(w.as_slice());
        // Overflow or truncation — never an attempted allocation.
        match decode_matrix(&mut r) {
            Err(WireError::Malformed(_)) | Err(WireError::Truncated { .. }) => {}
            other => panic!("expected overflow rejection, got {other:?}"),
        }
    }

    #[test]
    fn event_round_trips() {
        let evo = Evolution {
            f: Matrix::from_fn(2, 3, |i, j| i as f64 - j as f64 * 0.25),
            h: Some(Matrix::identity(2)),
            c: vec![0.5, -0.5],
            noise: CovarianceSpec::Diagonal(vec![1.0, 2.0]),
        };
        let obs = Observation {
            g: Matrix::identity(3),
            o: vec![1.0, 2.0, 3.0],
            noise: CovarianceSpec::ScaledIdentity(3, 0.5),
        };
        for event in [StreamEvent::Evolve(evo), StreamEvent::Observe(obs)] {
            let mut w = Writer::new();
            encode_event(&mut w, &event);
            let mut r = Reader::new(w.as_slice());
            let back = decode_event(&mut r).unwrap();
            r.finish().unwrap();
            match (&event, &back) {
                (StreamEvent::Evolve(a), StreamEvent::Evolve(b)) => {
                    assert!(bits_eq(&a.f, &b.f));
                    assert_eq!(a.c, b.c);
                }
                (StreamEvent::Observe(a), StreamEvent::Observe(b)) => {
                    assert!(bits_eq(&a.g, &b.g));
                    assert_eq!(a.o, b.o);
                }
                _ => panic!("variant changed in flight"),
            }
        }
    }

    #[test]
    fn checkpoint_round_trip_and_trust_boundary() {
        let c = Matrix::from_fn(2, 2, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let d = Matrix::col_from_slice(&[1.5, -2.5]);
        let ckpt = Checkpoint {
            index: 41,
            head: InfoHead::from_rows(c.clone(), d.clone()),
        };
        let mut w = Writer::new();
        encode_checkpoint(&mut w, &ckpt);
        let mut r = Reader::new(w.as_slice());
        let back = decode_checkpoint(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.index, 41);
        let (bc, bd) = back.head.rows_ref();
        assert!(bits_eq(&c, bc) && bits_eq(&d, bd));

        // Inconsistent parts must be rejected at decode, not downstream.
        let mut w = Writer::new();
        w.put_u64(7);
        encode_matrix(&mut w, &Matrix::zeros(2, 2));
        encode_matrix(&mut w, &Matrix::zeros(3, 1)); // row mismatch
        assert!(matches!(
            decode_checkpoint(&mut Reader::new(w.as_slice())),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn window_snapshot_round_trips_bitwise() {
        let c = Matrix::from_fn(2, 2, |i, j| ((i + 2 * j) as f64).sqrt());
        let d = Matrix::col_from_slice(&[0.125, -7.5]);
        let snap = WindowSnapshot {
            index: 17,
            head: InfoHead::from_rows(c.clone(), d.clone()),
            base_emitted: true,
            events: vec![
                StreamEvent::Observe(Observation {
                    g: Matrix::identity(2),
                    o: vec![1.0, -1.0],
                    noise: CovarianceSpec::Identity(2),
                }),
                StreamEvent::Evolve(Evolution {
                    f: Matrix::identity(2),
                    h: None,
                    c: vec![0.0, 0.0],
                    noise: CovarianceSpec::ScaledIdentity(2, 2.0),
                }),
            ],
        };
        let mut w = Writer::new();
        encode_window_snapshot(&mut w, &snap);
        let mut r = Reader::new(w.as_slice());
        let back = decode_window_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.index, 17);
        assert!(back.base_emitted);
        let (bc, bd) = back.head.rows_ref();
        assert!(bits_eq(&c, bc) && bits_eq(&d, bd));
        assert_eq!(back.events.len(), 2);
        assert!(matches!(back.events[0], StreamEvent::Observe(_)));
        assert!(matches!(back.events[1], StreamEvent::Evolve(_)));

        // A corrupt event count cannot size storage past the input.
        let mut w = Writer::new();
        w.put_u64(17);
        encode_matrix(&mut w, &c);
        encode_matrix(&mut w, &d);
        w.put_u8(0);
        w.put_u32(u32::MAX);
        assert!(matches!(
            decode_window_snapshot(&mut Reader::new(w.as_slice())),
            Err(WireError::Truncated { .. })
        ));
    }

    /// Forgetting is exact, so a NaN/∞ in a head arriving off the wire would
    /// stay in the restored stream's priors forever: both head-carrying
    /// decoders refuse it with a typed error.
    #[test]
    fn non_finite_head_is_malformed() {
        for (c10, d1) in [(f64::NAN, -7.5), (0.0, f64::INFINITY)] {
            let c = Matrix::from_rows(&[&[1.0, 0.5], &[c10, 2.0]]);
            let d = Matrix::col_from_slice(&[0.125, d1]);
            let snap = WindowSnapshot {
                index: 3,
                head: InfoHead::from_rows(c.clone(), d.clone()),
                base_emitted: false,
                events: Vec::new(),
            };
            let mut w = Writer::new();
            encode_window_snapshot(&mut w, &snap);
            assert!(matches!(
                decode_window_snapshot(&mut Reader::new(w.as_slice())),
                Err(WireError::Malformed(_))
            ));
            let mut w = Writer::new();
            w.put_u64(3);
            encode_matrix(&mut w, &c);
            encode_matrix(&mut w, &d);
            assert!(matches!(
                decode_checkpoint(&mut Reader::new(w.as_slice())),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn finalized_step_round_trips_with_and_without_covariance() {
        for cov in [None, Some(Matrix::identity(2))] {
            let step = FinalizedStep {
                index: 99,
                mean: vec![0.25, -0.75],
                covariance: cov.clone(),
            };
            let mut w = Writer::new();
            encode_finalized_step(&mut w, &step);
            let mut r = Reader::new(w.as_slice());
            let back = decode_finalized_step(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.index, 99);
            assert_eq!(back.mean, step.mean);
            assert_eq!(back.covariance.is_some(), cov.is_some());
        }
    }

    #[test]
    fn stream_options_round_trip() {
        let opts = StreamOptions {
            lag: 9,
            lag_policy: Some(LagPolicy::Fixed(9)),
            flush_every: 3,
            covariances: true,
            policy: ExecPolicy::Par { grain: 5 },
            auto_flush: false,
            backend: BackendPolicy::OddEven,
        };
        let mut w = Writer::new();
        encode_stream_options(&mut w, &opts);
        let mut r = Reader::new(w.as_slice());
        let back = decode_stream_options(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.lag, 9);
        assert_eq!(back.lag_policy, Some(LagPolicy::Fixed(9)));
        assert_eq!(back.flush_every, 3);
        assert!(back.covariances);
        assert_eq!(back.policy, ExecPolicy::Par { grain: 5 });
        assert!(!back.auto_flush);
        assert_eq!(back.backend, BackendPolicy::OddEven);
    }

    /// The options layout did not move when the scan, RTS and auto backends
    /// were withdrawn: default options encode to the bytes protocol
    /// version 2 always produced, and the three retired tags are rejected
    /// instead of being reinterpreted.
    #[test]
    fn retired_backend_tags_are_rejected_and_layout_is_unchanged() {
        assert_eq!(crate::VERSION, 2);
        let mut w = Writer::new();
        encode_stream_options(&mut w, &StreamOptions::default());
        let mut expected = Vec::new();
        expected.extend_from_slice(&32u32.to_le_bytes()); // lag
        expected.push(0); // no lag policy
        expected.extend_from_slice(&32u32.to_le_bytes()); // flush_every
        expected.push(0); // covariances off
        expected.push(1); // ExecPolicy::Par
        expected.extend_from_slice(&10u32.to_le_bytes()); // default grain
        expected.push(1); // auto_flush on
        expected.push(0); // backend: odd-even
        assert_eq!(w.as_slice(), &expected[..]);

        for tag in [1u8, 2, 3] {
            let mut bytes = expected.clone();
            *bytes.last_mut().unwrap() = tag;
            match decode_stream_options(&mut Reader::new(&bytes)) {
                Err(WireError::UnknownTag { what, tag: got }) => {
                    assert_eq!((what, got), ("backend policy", tag));
                }
                other => panic!("tag {tag} decoded as {other:?}"),
            }
        }
    }

    /// The adaptive lag policy's tag is rejected, not reinterpreted.
    #[test]
    fn retired_lag_policy_tag_is_rejected() {
        let mut w = Writer::new();
        encode_stream_options(&mut w, &StreamOptions::default());
        let mut bytes = w.as_slice().to_vec();
        bytes[4] = 2; // the tag after the lag
        match decode_stream_options(&mut Reader::new(&bytes)) {
            Err(WireError::UnknownTag { what, tag }) => assert_eq!((what, tag), ("lag policy", 2)),
            other => panic!("the retired tag decoded as {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        let mut w = Writer::new();
        w.put_u8(0xEE);
        assert!(matches!(
            decode_cov(&mut Reader::new(w.as_slice())),
            Err(WireError::UnknownTag {
                what: "covariance",
                tag: 0xEE
            })
        ));
        assert!(matches!(
            decode_event(&mut Reader::new(w.as_slice())),
            Err(WireError::UnknownTag { .. })
        ));
    }
}
