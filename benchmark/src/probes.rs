//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions at the workload's state dimension.

use crate::batch::{empty_smoothed, options, Batch};
use crate::report::Report;
use crate::stats::bench_ns;
use kalman::dense::{
    qr_tri_stack_applying_with, random::deterministic_well_conditioned, KernelKind, Matrix,
    QrFactor, Trans,
};
use kalman::model::{InfoHead, LinearModel, StreamEvent, WhitenedStep};
use kalman::prelude::{
    associative_smooth, paige_saunders_smooth, rts_smooth, run_with_threads, AssociativeOptions,
    ExecPolicy, OddEvenOptions, SmoothPlan, SmootherOptions,
};
use kalman::wire::{codec, FrameReader, FrameWriter, Reader, Writer};
use std::hint::black_box;
use std::time::Duration;

const PROBE_BUDGET: Duration = Duration::from_millis(60);

/// `dense`: the kernels the smoother's plan binds for dimension `n` — the
/// `n×n·n×n` product, the QR of a stacked `2n×n` block, and the
/// triangle-on-square elimination with one companion pair.
pub fn dense(n: usize, report: &mut Report) {
    let kind = KernelKind::for_dim(n);
    let gemm = kind.gemm();
    let a = deterministic_well_conditioned(n, n);
    let b = deterministic_well_conditioned(n, n);
    let mut c = Matrix::zeros(n, n);
    let gemm_ns = bench_ns(PROBE_BUDGET, || {
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        black_box(&c);
    });
    report.set("dense.gemm_ns", gemm_ns);
    // Computed operation count (2n³), not a hardware counter.
    report.set("dense.gemm_gflops", 2.0 * (n * n * n) as f64 / gemm_ns);

    let tall = deterministic_well_conditioned(2 * n, n);
    report.set(
        "dense.qr_ns",
        bench_ns(PROBE_BUDGET, || {
            black_box(QrFactor::new(tall.clone()));
        }),
    );

    let r0 = QrFactor::new(deterministic_well_conditioned(n, n)).r();
    let top0 = deterministic_well_conditioned(n, n + 1);
    report.set(
        "dense.qr_tri_stack_ns",
        bench_ns(PROBE_BUDGET, || {
            let (mut r, mut d) = (r0.clone(), a.clone());
            let (mut top, mut bot) = (top0.clone(), top0.clone());
            qr_tri_stack_applying_with(kind, &mut r, &mut d, &mut [(&mut top, &mut bot)]);
            black_box(&r);
        }),
    );
}

/// `model`: one `InfoHead::advance` through a whitened evolution of
/// `model` (what forgetting one step costs a stream).
pub fn infohead_advance(model: &LinearModel, report: &mut Report) {
    let prior = model.prior.as_ref().expect("probe models carry a prior");
    let mut head = InfoHead::from_prior(prior).expect("valid prior");
    let evo = WhitenedStep::from_step(&model.steps[1], 1)
        .expect("valid step")
        .evo
        .expect("step 1 evolves");
    report.set(
        "model.infohead_advance_ns",
        bench_ns(PROBE_BUDGET, || head = head.advance(&evo)),
    );
}

/// `seq`, `associative`, `par`: the paper's single-core comparison and the
/// 2-thread probe, all on `model`.  The 2-thread smooth runs last: on a
/// 2-CPU runner sustained 2-thread load slows what follows it.
pub fn compare(model: &LinearModel, covariances: bool, report: &mut Report) {
    let med = |f: &mut dyn FnMut()| bench_ns(PROBE_BUDGET, f) / 1e9;
    let mut oe = Batch::new(model.clone(), covariances);
    let odd_even = med(&mut || {
        oe.smooth();
    });
    let ps = med(&mut || {
        black_box(paige_saunders_smooth(model, SmootherOptions { covariances }).expect("solvable"));
    });
    report.set("seq.paige_saunders_s", ps);
    report.set("odd_even.slowdown_vs_paige_saunders", odd_even / ps);
    report.set(
        "seq.rts_s",
        med(&mut || {
            black_box(rts_smooth(model).expect("solvable"));
        }),
    );
    let scan = AssociativeOptions {
        policy: ExecPolicy::Seq,
    };
    report.set(
        "associative.smooth_s",
        med(&mut || {
            black_box(associative_smooth(model, scan).expect("solvable"));
        }),
    );
    let par = OddEvenOptions {
        policy: ExecPolicy::par(),
        ..options(covariances)
    };
    let two_threads = run_with_threads(2, || {
        let mut plan = SmoothPlan::for_model(model, par).expect("valid model");
        let mut out = empty_smoothed();
        plan.smooth_model_into(model, &mut out).expect("solvable");
        med(&mut || plan.smooth_model_into(model, &mut out).expect("solvable"))
    });
    report.set("par.speedup_t2", odd_even / two_threads);
}

/// `wire`: encode and decode of this workload's events, and a framed
/// round trip (`FrameWriter::send` → `FrameReader::next_frame`) in memory.
pub fn wire(events: &[StreamEvent], report: &mut Report) {
    // An Observe and an Evolve: the two shapes every stream alternates.
    let pair = &events[..2];
    let mut w = Writer::new();
    let encode_pair_ns = bench_ns(PROBE_BUDGET, || {
        w.clear();
        for e in pair {
            codec::encode_event(&mut w, e);
        }
        black_box(w.as_slice());
    });
    report.set("wire.encode_ns", encode_pair_ns / 2.0);
    report.set("wire.bytes_per_event", w.len() as f64 / 2.0);
    let bytes = w.as_slice().to_vec();
    report.set(
        "wire.decode_ns",
        bench_ns(PROBE_BUDGET, || {
            let mut r = Reader::new(&bytes);
            for _ in pair {
                black_box(codec::decode_event(&mut r).expect("own encoding"));
            }
        }) / 2.0,
    );

    let mut payloads = [Writer::new(), Writer::new()];
    for (p, e) in payloads.iter_mut().zip(pair) {
        codec::encode_event(p, e);
    }
    const FRAMES: usize = 64;
    let mut tx = FrameWriter::new(Vec::new());
    let batch_ns = bench_ns(PROBE_BUDGET, || {
        tx.get_mut().clear();
        for i in 0..FRAMES {
            tx.send(1, payloads[i % 2].as_slice())
                .expect("in-memory sink");
        }
        let mut rx = FrameReader::new(tx.get_mut().as_slice());
        for _ in 0..FRAMES {
            black_box(rx.next_frame().expect("own frames").expect("frame present"));
        }
    });
    report.set("wire.frame_roundtrip_ns", batch_ns / FRAMES as f64);
}
