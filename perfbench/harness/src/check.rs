//! Output checks. Every comparison is bitwise: a result that differs
//! from its reference in the last bit of any number is a failure.

use xmodel_core::solver::{Equilibria, Intersection};
use xmodel_core::stability::Stability;
use xmodel_obs::json::JsonValue;

/// Same numbers, bit for bit, and the same stability.
pub fn same_point(a: &Intersection, b: &Intersection) -> bool {
    a.k.to_bits() == b.k.to_bits()
        && a.x.to_bits() == b.x.to_bits()
        && a.ms_throughput.to_bits() == b.ms_throughput.to_bits()
        && a.cs_throughput.to_bits() == b.cs_throughput.to_bits()
        && a.stability == b.stability
}

/// `Equilibria ==` and, on top of it, bitwise equality of every root
/// (`==` on `f64` would let `0.0` match `-0.0`).
pub fn same_equilibria(a: &Equilibria, b: &Equilibria) -> bool {
    a == b
        && a.points().len() == b.points().len()
        && a.points()
            .iter()
            .zip(b.points())
            .all(|(x, y)| same_point(x, y))
}

/// HTTP statuses the benchmark accepts as an answered request.
pub fn status_ok(status: u16) -> bool {
    (200..300).contains(&status)
}

pub fn stability_name(stability: Stability) -> &'static str {
    match stability {
        Stability::Stable => "stable",
        Stability::Unstable => "unstable",
        Stability::Marginal => "marginal",
    }
}

/// Does a JSON object carry `point`'s numbers (fields `k`, `x`, `ms`,
/// `cs`, `stability`) exactly? The daemon prints shortest round-trip
/// decimals, so parsing them back must give the same bits.
pub fn json_point_matches(json: &JsonValue, point: &Intersection) -> bool {
    let bits = |key: &str| json.get(key).and_then(JsonValue::as_f64).map(f64::to_bits);
    bits("k") == Some(point.k.to_bits())
        && bits("x") == Some(point.x.to_bits())
        && bits("ms") == Some(point.ms_throughput.to_bits())
        && bits("cs") == Some(point.cs_throughput.to_bits())
        && json.get("stability").and_then(JsonValue::as_str)
            == Some(stability_name(point.stability))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel_core::presets::GpuSpec;
    use xmodel_core::XModel;

    fn solved() -> (XModel, Equilibria) {
        let machine = GpuSpec::kepler_k40().machine_params(xmodel_core::presets::Precision::Single);
        let workload = xmodel_core::params::WorkloadParams::new(20.0, 1.5, 48.0);
        let model = XModel::new(machine, workload);
        let eq = model.solve_with(2048);
        (model, eq)
    }

    #[test]
    fn one_ulp_in_k_is_a_failure() {
        let (_, eq) = solved();
        let point = eq
            .operating_point()
            .expect("Kepler preset has an operating point");
        assert!(same_point(&point, &point));
        let nudged = Intersection {
            k: f64::from_bits(point.k.to_bits() + 1),
            ..point
        };
        assert!(!same_point(&point, &nudged));

        let body = |k: f64| {
            format!(
                "{{\"k\":{},\"x\":{},\"ms\":{},\"cs\":{},\"stability\":\"{}\"}}",
                k,
                point.x,
                point.ms_throughput,
                point.cs_throughput,
                stability_name(point.stability)
            )
        };
        let exact = xmodel_obs::json::parse(&body(point.k)).expect("valid JSON");
        let off = xmodel_obs::json::parse(&body(nudged.k)).expect("valid JSON");
        assert!(json_point_matches(&exact, &point));
        assert!(!json_point_matches(&off, &point));
    }

    #[test]
    fn a_solve_matches_itself() {
        let (model, eq) = solved();
        assert!(same_equilibria(&eq, &model.solve_with(2048)));
    }

    #[test]
    fn shed_and_server_errors_are_failures() {
        for status in [429, 500, 503, 504, 400, 404, 302] {
            assert!(!status_ok(status), "{status} must count as a failure");
        }
        assert!(status_ok(200));
    }
}
