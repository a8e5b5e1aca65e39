//! References every reply is checked against. None of them comes from
//! the code under test: the decision table is written by hand, the
//! checksums come from serial runs, and guard paths and verdicts are
//! derived from the benchmark's own reading of the data it holds or
//! wrote.

use std::collections::HashMap;
use subsub_core::{AlgorithmLevel, ProgramReport};
use subsub_rtcheck::{Bindings, GuardPath, MonotoneReq, MonotoneVerdict};
use subsub_service::Outcome;
use subsub_symbolic::Symbol;

/// The three algorithm levels of Figure 17, in table order.
pub const LEVELS: [AlgorithmLevel; 3] = [
    AlgorithmLevel::Classic,
    AlgorithmLevel::Base,
    AlgorithmLevel::New,
];

/// What the analysis must decide for one (kernel, level) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Depth of the outermost parallel loop of the last nest; `None`
    /// when that nest stays serial.
    pub depth: Option<usize>,
    /// The emitted runtime check, in display form.
    pub check: Option<String>,
}

fn level_name(level: AlgorithmLevel) -> &'static str {
    match level {
        AlgorithmLevel::Classic => "Classic",
        AlgorithmLevel::Base => "Base",
        AlgorithmLevel::New => "New",
    }
}

/// The hand-written table of `expected_decisions.tsv`, keyed by
/// (kernel name, level name).
#[derive(Debug, Clone)]
pub struct DecisionTable(HashMap<(String, &'static str), Decision>);

impl DecisionTable {
    /// The table shipped with the benchmark.
    pub fn shipped() -> DecisionTable {
        DecisionTable::parse(include_str!("../expected_decisions.tsv"))
            .expect("the shipped decision table is well formed")
    }

    /// Parses the tab-separated table format.
    pub fn parse(text: &str) -> Result<DecisionTable, String> {
        let mut cells = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let [kernel, level, depth, check] = cols[..] else {
                return Err(format!("line {}: expected 4 columns", n + 1));
            };
            let level = LEVELS
                .into_iter()
                .map(level_name)
                .find(|l| *l == level)
                .ok_or_else(|| format!("line {}: unknown level {level}", n + 1))?;
            let depth = match depth {
                "serial" => None,
                d => Some(
                    d.parse()
                        .map_err(|_| format!("line {}: bad depth", n + 1))?,
                ),
            };
            let check = (check != "-").then(|| check.to_string());
            if cells
                .insert((kernel.to_string(), level), Decision { depth, check })
                .is_some()
            {
                return Err(format!("line {}: duplicate cell", n + 1));
            }
        }
        Ok(DecisionTable(cells))
    }

    /// The expected decision of one cell.
    pub fn get(&self, kernel: &str, level: AlgorithmLevel) -> Option<&Decision> {
        self.0.get(&(kernel.to_string(), level_name(level)))
    }
}

/// The decision a program report makes for `func`'s last nest.
pub fn decision_of(report: &ProgramReport, func: &str) -> Result<Decision, String> {
    let f = report
        .function(func)
        .ok_or_else(|| format!("function {func} missing from the report"))?;
    Ok(match f.last_nest_parallel() {
        None => Decision {
            depth: None,
            check: None,
        },
        Some(l) => Decision {
            depth: Some(l.depth),
            check: l
                .decision
                .plan()
                .and_then(|p| p.runtime_check.as_ref())
                .map(|c| c.to_string()),
        },
    })
}

/// Checks an `AnalyzeSource` reply against the expected decision.
pub fn check_analyzed(outcome: &Outcome, func: &str, want: &Decision) -> Result<bool, String> {
    let Outcome::Analyzed(report) = outcome else {
        return Err("expected an analysis report".into());
    };
    let got = decision_of(report, func)?;
    if &got != want {
        return Err(format!("decision {got:?}, expected {want:?}"));
    }
    Ok(got.depth.is_some())
}

/// The relative tolerance checksums are compared with: parallel
/// reductions reorder floating-point sums.
const CHECKSUM_RTOL: f64 = 1e-6;

/// Compares a checksum with its serial golden.
pub fn check_checksum(got: f64, golden: f64) -> Result<(), String> {
    let scale = got.abs().max(golden.abs()).max(1e-12);
    if got.is_finite() && ((got - golden) / scale).abs() < CHECKSUM_RTOL {
        Ok(())
    } else {
        Err(format!("checksum {got}, serial golden {golden}"))
    }
}

/// Checks an `Execute` reply: guard path and checksum.
pub fn check_executed(outcome: &Outcome, golden: f64, want: GuardPath) -> Result<bool, String> {
    let Outcome::Executed { path, checksum, .. } = outcome else {
        return Err("expected an execution outcome".into());
    };
    if *path != want {
        return Err(format!("guard path {path:?}, expected {want:?}"));
    }
    check_checksum(*checksum, golden)?;
    Ok(*path == GuardPath::Parallel)
}

/// Checks a monotonicity verdict against the expected one.
pub fn check_verdict(got: &MonotoneVerdict, want: &MonotoneVerdict) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("verdict {got:?}, expected {want:?}"))
    }
}

/// Whether `data` meets `req`, by the benchmark's own scan.
pub fn is_monotone(data: &[usize], req: MonotoneReq) -> bool {
    data.windows(2).all(|w| match req {
        MonotoneReq::Strict => w[0] < w[1],
        MonotoneReq::NonStrict => w[0] <= w[1],
    })
}

/// Value of one scalar in a check: `x_max` names the post-loop maximum
/// of `x` when that is bound, else a plain variable.
fn lookup(name: &str, b: &Bindings) -> Option<i64> {
    name.strip_suffix("_max")
        .and_then(|base| b.get(&Symbol::post_max(base)))
        .or_else(|| b.get(&Symbol::var(name)))
}

fn eval_sum(side: &str, b: &Bindings) -> Result<i64, String> {
    let mut total = 0i64;
    let mut sign = 1i64;
    for tok in side.split_whitespace() {
        match tok {
            "+" => sign = 1,
            "-" => sign = -1,
            t => {
                let v = match t.parse::<i64>() {
                    Ok(v) => v,
                    Err(_) => lookup(t, b).ok_or_else(|| format!("unbound `{t}`"))?,
                };
                total += sign * v;
                sign = 1;
            }
        }
    }
    Ok(total)
}

/// Evaluates a check of the form `a ± b ... <= c ± d ...` (the only form
/// the decision table holds) under `bindings`.
pub fn eval_check(check: &str, bindings: &Bindings) -> Result<bool, String> {
    let (lhs, rhs) = check
        .split_once("<=")
        .ok_or_else(|| format!("check `{check}` is not a `<=` comparison"))?;
    Ok(eval_sum(lhs, bindings)? <= eval_sum(rhs, bindings)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_table_covers_every_registry_cell() {
        let t = DecisionTable::shipped();
        assert_eq!(t.0.len(), 48);
        for k in subsub_kernels::all_kernels() {
            for level in LEVELS {
                assert!(t.get(k.name(), level).is_some(), "{} {level}", k.name());
            }
        }
    }

    #[test]
    fn malformed_tables_are_refused() {
        assert!(DecisionTable::parse("AMGmk\tNew\t0").is_err());
        assert!(DecisionTable::parse("AMGmk\tNewest\t0\t-").is_err());
        assert!(DecisionTable::parse("AMGmk\tNew\tdeep\t-").is_err());
        assert!(DecisionTable::parse("AMGmk\tNew\t0\t-\nAMGmk\tNew\t0\t-").is_err());
    }

    #[test]
    fn checks_evaluate_under_bindings() {
        let mut b = Bindings::new();
        b.set_var("num_rownnz", 10).set_post_max("irownnz", 10);
        assert_eq!(eval_check("num_rownnz - 1 <= irownnz_max", &b), Ok(true));
        b.set_post_max("irownnz", 8);
        assert_eq!(eval_check("num_rownnz - 1 <= irownnz_max", &b), Ok(false));
        let mut g = Bindings::new();
        g.set_var("gstep", 3);
        assert_eq!(eval_check("1 <= gstep", &g), Ok(true));
        assert!(eval_check("1 <= nope", &g).is_err());
        assert!(eval_check("gstep", &g).is_err());
    }

    #[test]
    fn checksums_tolerate_reordering_only() {
        assert!(check_checksum(1.0, 1.0 + 1e-9).is_ok());
        assert!(check_checksum(1.0, 1.001).is_err());
        assert!(check_checksum(f64::NAN, 1.0).is_err());
    }
}
