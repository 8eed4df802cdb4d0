//! Dynamic policy management (paper Section 6).
//!
//! Guarded expressions go stale as policies arrive. Regenerating after
//! every insertion wastes work when no queries run in between; never
//! regenerating makes queries pay for un-guarded policies. Section 6
//! derives the optimal number of insertions `k̃` between regenerations:
//!
//! ```text
//! k̃ = sqrt( 4 · C_G / (ρ(oc_G) · α · c_e · r_pq) )        (Equation 19)
//! ```
//!
//! where `C_G` is the (constant) guard-generation cost, `ρ(oc_G)` the
//! guard cardinality, and `r_pq = r_q / r_p` the number of queries posed
//! per policy insertion. Theorem 2 shows regeneration should happen
//! immediately once the k-th policy arrives.
//!
//! This module keeps Equations 18–19 as the paper's model; the service
//! does not defer. The first read after a grant brings the guard current:
//! a grant that shares no guard condition with the policies the
//! expression covers (and overlaps none of their ranges) is placed into
//! the cached expression, exactly where a regeneration would put it
//! ([`crate::guard::placement`]), for the price of one guard's estimate
//! and one new branch compiled; any other grant regenerates, paying
//! `C_G`.

use crate::cost::CostModel;

/// Equation 19: the optimal number of policy insertions before
/// regenerating, given the average guard cardinality `rho_guard`.
pub fn optimal_regeneration_interval(
    cost: &CostModel,
    rho_guard: f64,
    queries_per_insertion: f64,
) -> f64 {
    let denom = rho_guard.max(1.0) * cost.alpha * cost.ce * queries_per_insertion.max(f64::EPSILON);
    (4.0 * cost.guard_gen / denom).sqrt()
}

/// Equation 18's objective: total cost of query evaluation plus guard
/// regeneration over `n_policies` insertions with interval `k`. Used by
/// [`empirical_best_interval`] to check `k̃` against the true minimum.
pub fn total_cost_for_interval(
    cost: &CostModel,
    rho_guard: f64,
    queries_per_insertion: f64,
    n_policies: u64,
    base_policies: u64,
    query_len: u64,
    k: u64,
) -> f64 {
    let k = k.max(1);
    let intervals = (n_policies as f64 / k as f64).ceil() as u64;
    let mut total = 0.0;
    for _ in 0..intervals {
        // Queries during the interval pay for the stale guard plus the
        // growing pending set (Equation 17).
        for j in 0..k {
            let pending = j as f64;
            let per_query = rho_guard
                * (cost.cr
                    + cost.alpha * cost.ce * (base_policies as f64 + pending + query_len as f64));
            total += queries_per_insertion * per_query;
        }
        total += cost.guard_gen;
    }
    total
}

/// Scan a range of intervals and return the empirical minimizer of
/// [`total_cost_for_interval`].
pub fn empirical_best_interval(
    cost: &CostModel,
    rho_guard: f64,
    queries_per_insertion: f64,
    n_policies: u64,
    base_policies: u64,
    query_len: u64,
) -> u64 {
    (1..=n_policies.max(1))
        .min_by(|&a, &b| {
            let ca = total_cost_for_interval(
                cost,
                rho_guard,
                queries_per_insertion,
                n_policies,
                base_policies,
                query_len,
                a,
            );
            let cb = total_cost_for_interval(
                cost,
                rho_guard,
                queries_per_insertion,
                n_policies,
                base_policies,
                query_len,
                b,
            );
            ca.total_cmp(&cb)
        })
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_shrinks_with_query_rate() {
        let cost = CostModel::default();
        let slow = optimal_regeneration_interval(&cost, 500.0, 0.1);
        let fast = optimal_regeneration_interval(&cost, 500.0, 10.0);
        assert!(
            fast < slow,
            "more queries per insertion should regenerate more often"
        );
    }

    #[test]
    fn interval_shrinks_with_guard_cardinality() {
        let cost = CostModel::default();
        let small = optimal_regeneration_interval(&cost, 100.0, 1.0);
        let big = optimal_regeneration_interval(&cost, 10_000.0, 1.0);
        assert!(big < small);
    }

    #[test]
    fn formula_matches_empirical_minimum() {
        let cost = CostModel::default();
        let rho = 400.0;
        let rpq = 2.0;
        let k_formula = optimal_regeneration_interval(&cost, rho, rpq);
        let k_emp = empirical_best_interval(&cost, rho, rpq, 200, 150, 3) as f64;
        // The closed form uses uniformity simplifications; it should land
        // within a factor of ~2.5 of the empirical optimum.
        let ratio = (k_formula / k_emp).max(k_emp / k_formula);
        assert!(
            ratio < 2.5,
            "formula k̃={k_formula:.1} vs empirical k={k_emp} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn total_cost_convex_around_minimum() {
        let cost = CostModel::default();
        let f = |k| total_cost_for_interval(&cost, 400.0, 2.0, 200, 150, 3, k);
        let kstar = empirical_best_interval(&cost, 400.0, 2.0, 200, 150, 3);
        if kstar > 2 {
            assert!(f(kstar) <= f(kstar / 2));
        }
        assert!(f(kstar) <= f(kstar * 4));
    }
}
