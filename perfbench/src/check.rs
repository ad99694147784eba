//! Correctness of every timed solve against an independent reference:
//! the unfused `CpuBackend` path, which computes through
//! `fusedml_matrix::reference`.

use fusedml_matrix::reference;

/// Largest relative L2 distance from the reference a solve may land at.
/// Device paths reduce in a different order than the host reference, and
/// the solvers amplify that rounding over their iterations; a wrong
/// kernel lands orders of magnitude further away.
pub const REL_TOL: f64 = 1e-6;

/// Why a solve's result was rejected, or `Ok` if it matches.
pub fn check(result: &Result<Vec<f64>, String>, reference: &[f64]) -> Result<(), String> {
    let values = result.as_ref().map_err(|e| format!("typed error: {e}"))?;
    if values.len() != reference.len() {
        return Err(format!(
            "length {} != reference length {}",
            values.len(),
            reference.len()
        ));
    }
    if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
        return Err(format!("non-finite value {bad}"));
    }
    let err = reference::rel_l2_error(values, reference);
    if err.is_nan() || err > REL_TOL {
        return Err(format!("relative L2 error {err:e} > {REL_TOL:e}"));
    }
    Ok(())
}

/// Attempted / failed solve counts, with the first failures kept for the
/// report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(format!("{what}: {why}"));
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Feed deliberately wrong results through [`check`] and require each to
/// be counted as a failure, so a check that passes everything cannot
/// report a clean run. `reference` is any real solve's reference result.
pub fn self_test(reference: &[f64]) -> Result<(), String> {
    let norm = reference::norm2_sq(reference).sqrt();
    if norm == 0.0 {
        return Err("self-test needs a nonzero reference".into());
    }
    let mut perturbed = reference.to_vec();
    perturbed[0] += 1e-3 * norm;
    let mut nan = reference.to_vec();
    nan[reference.len() / 2] = f64::NAN;
    let mut tally = Tally::default();
    tally.record("exact", check(&Ok(reference.to_vec()), reference));
    if tally.error_rate() != 0.0 {
        return Err(format!("exact result rejected: {:?}", tally.first_failures));
    }
    let wrong: [(&str, Result<Vec<f64>, String>); 4] = [
        ("perturbed", Ok(perturbed)),
        ("non-finite", Ok(nan)),
        ("truncated", Ok(reference[1..].to_vec())),
        ("typed error", Err("injected".into())),
    ];
    for (what, result) in wrong {
        let failed_before = tally.failed;
        tally.record(what, check(&result, reference));
        if tally.failed == failed_before {
            return Err(format!("{what} result passed the reference check"));
        }
    }
    if tally.error_rate() > 0.0 {
        Ok(())
    } else {
        Err("error_rate stayed 0 on wrong results".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_check_catches_a_perturbed_result() {
        let reference: Vec<f64> = (1..=16).map(|i| i as f64 / 7.0).collect();
        self_test(&reference).unwrap();
    }

    #[test]
    fn the_check_accepts_rounding_noise() {
        let reference: Vec<f64> = (1..=16).map(|i| i as f64 / 7.0).collect();
        let noisy: Vec<f64> = reference.iter().map(|v| v * (1.0 + 1e-12)).collect();
        assert!(check(&Ok(noisy), &reference).is_ok());
    }
}
