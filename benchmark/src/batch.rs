//! The batch path: one warm `SmoothPlan::smooth_model_into` per op, and
//! the same smooth split into its phases for the traced run.

use crate::stats::{median, time_s, Weather};
use crate::trace::Tracer;
use kalman::model::{whiten_model, LinearModel, Smoothed};
use kalman::odd_even::PlanSchedule;
use kalman::prelude::{
    paige_saunders_smooth, ExecPolicy, OddEvenOptions, SmoothPlan, SmootherOptions,
};
use std::time::Instant;

/// Sequential odd-even options (`compress_odd` is the library default).
pub fn options(covariances: bool) -> OddEvenOptions {
    OddEvenOptions {
        covariances,
        policy: ExecPolicy::Seq,
        compress_odd: true,
    }
}

pub fn empty_smoothed() -> Smoothed {
    Smoothed {
        means: Vec::new(),
        covariances: None,
    }
}

/// Bitwise equality of two results (means and covariances).
pub fn same_bits(a: &Smoothed, b: &Smoothed) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.means.len() == b.means.len()
        && a.means.iter().zip(&b.means).all(|(x, y)| bits(x, y))
        && match (&a.covariances, &b.covariances) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|(p, q)| bits(p.as_slice(), q.as_slice()))
            }
            _ => false,
        }
}

/// A model with its warm plan: what set-up leaves for the timed ops.
pub struct Batch {
    pub model: LinearModel,
    pub plan: SmoothPlan,
    pub out: Smoothed,
}

impl Batch {
    /// Builds the plan and runs the warm-up smooth.
    pub fn new(model: LinearModel, covariances: bool) -> Batch {
        let mut plan = SmoothPlan::for_model(&model, options(covariances)).expect("valid model");
        let mut out = empty_smoothed();
        plan.smooth_model_into(&model, &mut out)
            .expect("solvable model");
        Batch { model, plan, out }
    }

    pub fn steps(&self) -> usize {
        self.model.num_states()
    }

    /// One op; seconds.
    pub fn smooth(&mut self) -> f64 {
        let Batch { model, plan, out } = self;
        time_s(|| plan.smooth_model_into(model, out).expect("solvable model"))
    }

    /// `true` when the held result is within `1e-8` of the sequential
    /// Paige–Saunders smoother on means and covariances.
    pub fn agrees_with_paige_saunders(&self) -> bool {
        let covariances = self.out.covariances.is_some();
        let reference = paige_saunders_smooth(&self.model, SmootherOptions { covariances })
            .expect("solvable model");
        self.out.max_mean_diff(&reference) <= 1e-8
            && self.out.max_cov_diff(&reference).unwrap_or(0.0) <= 1e-8
    }
}

/// Median seconds of each phase of one smooth, and of the whole.
pub struct Phases {
    pub plan_build: f64,
    pub whiten: f64,
    pub factor: f64,
    pub solve: f64,
    pub selinv: f64,
    pub whole: f64,
}

impl Phases {
    /// Σ phases a smooth with these options runs, over the whole smooth.
    pub fn sum_ratio(&self, covariances: bool) -> f64 {
        let selinv = if covariances { self.selinv } else { 0.0 };
        (self.whiten + self.factor + self.solve + selinv) / self.whole
    }
}

/// Times the calls a smooth is made of — `whiten_model`,
/// `SmoothPlan::execute`, `solve_into`, `selinv_into` — one after another
/// on the held model, alternating with the whole `smooth_model_into`, so
/// both see the same weather.  SelInv is timed even when the workload runs
/// without covariances (it is then not part of `whole`).
pub fn phases(b: &mut Batch, reps: usize, tr: &mut Tracer, weather: &mut Weather) -> Phases {
    let dims: Vec<usize> = b.model.steps.iter().map(|s| s.state_dim).collect();
    let plan_build = median(
        &(0..reps.max(3))
            .map(|_| time_s(|| drop(std::hint::black_box(PlanSchedule::build(&dims)))))
            .collect::<Vec<_>>(),
    );
    let mut covs = Vec::new();
    let mut t = [const { Vec::new() }; 5];
    for rep in 0..reps {
        weather.check(format!("phases {rep}"));
        let op = (0, rep as u64);
        let whole = tr.span("odd_even.smooth_model_into", op, |_| b.smooth());
        t[4].push(whole);
        tr.span("bench.split_smooth", op, |tr| {
            let mut timed = |name, i: usize, f: &mut dyn FnMut()| {
                let start = Instant::now();
                tr.span(name, op, |_| f());
                t[i].push(start.elapsed().as_secs_f64());
            };
            let mut steps = Vec::new();
            timed("model.whiten_model", 0, &mut || {
                steps = whiten_model(&b.model).expect("valid model");
            });
            timed("odd_even.execute", 1, &mut || {
                b.plan.execute(&mut steps).expect("planned shape")
            });
            timed("odd_even.solve_into", 2, &mut || {
                b.plan.solve_into(&mut b.out.means).expect("full rank");
            });
            timed("odd_even.selinv_into", 3, &mut || {
                b.plan.selinv_into(&mut covs).expect("full rank");
            });
        });
    }
    Phases {
        plan_build,
        whiten: median(&t[0]),
        factor: median(&t[1]),
        solve: median(&t[2]),
        selinv: median(&t[3]),
        whole: median(&t[4]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_add_up_on_a_small_model_and_ops_repeat_bitwise() {
        let mut b = Batch::new(crate::gen::batch_model(3, 6, 300), true);
        assert!(b.agrees_with_paige_saunders());
        let first = b.out.clone();
        b.smooth();
        assert!(same_bits(&first, &b.out));
        let mut tr = Tracer::new(true);
        let p = phases(&mut b, 5, &mut tr, &mut Weather::default());
        assert!(same_bits(&first, &b.out));
        let ratio = p.sum_ratio(true);
        assert!((0.7..1.3).contains(&ratio), "phase sum ratio {ratio}");
        assert_eq!(tr.totals()["odd_even.execute"].0, 5);
    }
}
