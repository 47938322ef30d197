//! The two-scan smoother driver.

use crate::elements::{FilterElement, SmoothElement};
use kalman_dense::Matrix;
use kalman_model::{KalmanError, LinearModel, Result, Smoothed};
use kalman_par::{inclusive_scan_in_place, map_collect, suffix_scan_in_place, ExecPolicy};

/// Options for the associative smoother.
#[derive(Debug, Clone, Copy)]
pub struct AssociativeOptions {
    /// Execution policy for element construction and both scans.
    pub policy: ExecPolicy,
}

impl Default for AssociativeOptions {
    fn default() -> Self {
        AssociativeOptions {
            policy: ExecPolicy::par(),
        }
    }
}

fn check_supported(model: &LinearModel) -> Result<()> {
    model.validate()?;
    if model.prior.is_none() {
        return Err(KalmanError::PriorRequired);
    }
    if !model.is_uniform() {
        return Err(KalmanError::UnsupportedStructure(
            "the associative smoother requires uniform state dimensions, square F, and H = I"
                .into(),
        ));
    }
    Ok(())
}

/// The filtering elements of every state, combined by the forward scan:
/// entry `i` carries the filtered mean in `b` and covariance in `c`.
fn filter_scan(model: &LinearModel, policy: ExecPolicy) -> Result<Vec<FilterElement>> {
    let elems = {
        let _span = kalman_obs::span!("scan.elements");
        map_collect(policy, model.num_states(), |i| {
            FilterElement::for_state(model, i)
        })
    };
    let mut elems = elems.into_iter().collect::<Result<Vec<_>>>()?;
    let _span = kalman_obs::span!("scan.fwd");
    inclusive_scan_in_place(policy, &mut elems, FilterElement::combine);
    Ok(elems)
}

/// Runs only the filtering scan, returning filtered means and covariances.
///
/// # Errors
///
/// [`KalmanError::PriorRequired`] / [`KalmanError::UnsupportedStructure`]
/// for unsupported models; covariance failures propagate.
pub fn associative_filter(
    model: &LinearModel,
    options: AssociativeOptions,
) -> Result<(Vec<Vec<f64>>, Vec<Matrix>)> {
    check_supported(model)?;
    let elems = filter_scan(model, options.policy)?;
    let means = elems.iter().map(|e| e.b.col(0).to_vec()).collect();
    let covs = elems.into_iter().map(|e| e.c).collect();
    Ok((means, covs))
}

/// Smooths `model` with the associative parallel-scan algorithm.
///
/// Phase 1 builds the filtering elements (parallel per step) and runs the
/// forward scan; phase 2 builds the smoothing elements from the filtered
/// results and runs the backward (suffix) scan.  Both scans run
/// `kalman-par`'s fixed combine tree, so results are bitwise identical
/// across execution policies.  Unlike the QR smoothers, covariances are
/// inherent to the computation and always returned.
///
/// # Errors
///
/// Same as [`associative_filter`].
pub fn associative_smooth(model: &LinearModel, options: AssociativeOptions) -> Result<Smoothed> {
    check_supported(model)?;
    let policy = options.policy;
    let filtered = filter_scan(model, policy)?;
    let elems = {
        let _span = kalman_obs::span!("scan.smooth");
        map_collect(policy, filtered.len(), |i| {
            SmoothElement::for_state(model, i, filtered[i].b.col(0), &filtered[i].c)
        })
    };
    let mut elems = elems.into_iter().collect::<Result<Vec<_>>>()?;
    {
        let _span = kalman_obs::span!("scan.bwd");
        suffix_scan_in_place(policy, &mut elems, SmoothElement::combine);
    }
    Ok(Smoothed {
        means: elems.iter().map(|e| e.g.col(0).to_vec()).collect(),
        covariances: Some(elems.into_iter().map(|e| e.l).collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::{generators, solve_dense};
    use kalman_seq::{kalman_filter, rts_smooth};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn filter_matches_conventional_filter() {
        let model = generators::paper_benchmark(&mut rng(60), 3, 25, true);
        let (means, covs) = associative_filter(&model, AssociativeOptions::default()).unwrap();
        let fr = kalman_filter(&model).unwrap();
        for i in 0..model.num_states() {
            for (x, y) in means[i].iter().zip(&fr.means[i]) {
                assert!((x - y).abs() < 1e-8, "state {i}");
            }
            assert!(covs[i].approx_eq(&fr.covs[i], 1e-8), "cov {i}");
        }
    }

    #[test]
    fn smoother_matches_rts_and_dense() {
        let model = generators::paper_benchmark(&mut rng(61), 4, 40, true);
        let assoc = associative_smooth(&model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&model).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(
            assoc.max_mean_diff(&rts) < 1e-8,
            "vs RTS {}",
            assoc.max_mean_diff(&rts)
        );
        assert!(assoc.max_cov_diff(&rts).unwrap() < 1e-8);
        assert!(assoc.max_mean_diff(&dense) < 1e-8);
        assert!(assoc.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn seq_and_par_policies_agree() {
        let model = generators::paper_benchmark(&mut rng(62), 3, 33, true);
        let seq = associative_smooth(
            &model,
            AssociativeOptions {
                policy: ExecPolicy::Seq,
            },
        )
        .unwrap();
        let par = associative_smooth(
            &model,
            AssociativeOptions {
                policy: ExecPolicy::par_with_grain(2),
            },
        )
        .unwrap();
        assert_eq!(seq.max_mean_diff(&par), 0.0);
        assert_eq!(seq.max_cov_diff(&par), Some(0.0));
    }

    #[test]
    fn requires_prior_and_uniform_model() {
        let model = generators::paper_benchmark(&mut rng(63), 2, 5, false);
        assert!(matches!(
            associative_smooth(&model, AssociativeOptions::default()),
            Err(KalmanError::PriorRequired)
        ));
        let mut dim_change = generators::dimension_change(&mut rng(64), 2, 4);
        dim_change.set_prior(vec![0.0; 2], kalman_model::CovarianceSpec::Identity(2));
        assert!(matches!(
            associative_smooth(&dim_change, AssociativeOptions::default()),
            Err(KalmanError::UnsupportedStructure(_))
        ));
    }

    #[test]
    fn handles_missing_observations() {
        let mut model = generators::sparse_observations(&mut rng(65), 3, 20, 4);
        model.set_prior(vec![0.0; 3], kalman_model::CovarianceSpec::Identity(3));
        let assoc = associative_smooth(&model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&model).unwrap();
        assert!(assoc.max_mean_diff(&rts) < 1e-8);
        assert!(assoc.max_cov_diff(&rts).unwrap() < 1e-8);
    }

    #[test]
    fn handles_tracking_problem() {
        let p = generators::tracking_2d(&mut rng(66), 40, 0.1, 0.5, 0.2);
        let assoc = associative_smooth(&p.model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&p.model).unwrap();
        assert!(assoc.max_mean_diff(&rts) < 1e-7);
        assert!(assoc.max_cov_diff(&rts).unwrap() < 1e-7);
    }

    #[test]
    fn single_state() {
        let model = generators::paper_benchmark(&mut rng(67), 2, 0, true);
        let assoc = associative_smooth(&model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&model).unwrap();
        assert!(assoc.max_mean_diff(&rts) < 1e-10);
    }
}
