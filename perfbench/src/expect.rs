//! The correctness gate: simulated results must match, bit for bit, the
//! values recorded in `expected.txt` for this workload, scale and seed. For
//! an unrecorded combination the gate only requires every iteration of the
//! run to agree with the first one.
//!
//! `expected.txt` holds one value per line:
//!
//! ```text
//! <workload> <scale> <seed or *> <key> <value>
//! ```
//!
//! Values are printed with Rust's shortest round-trip `f64` formatting, so
//! parsing them back restores the exact bits. `*` marks a workload whose
//! inputs do not depend on the seed.

use std::collections::BTreeMap;

/// Every recorded value, keyed by `(workload, scale, seed)` then by name.
pub struct Expected {
    runs: BTreeMap<(String, String, String), BTreeMap<String, f64>>,
}

impl Expected {
    /// Parses the table; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut runs: BTreeMap<_, BTreeMap<String, f64>> = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, scale, seed, key, value] = f[..] else {
                return Err(format!(
                    "expected.txt:{}: want 5 fields, got {}",
                    n + 1,
                    f.len()
                ));
            };
            let value: f64 = value
                .parse()
                .map_err(|e| format!("expected.txt:{}: bad value {value:?}: {e}", n + 1))?;
            runs.entry((workload.into(), scale.into(), seed.into()))
                .or_default()
                .insert(key.into(), value);
        }
        Ok(Expected { runs })
    }

    /// The recorded values for one run, if any: an exact seed match first,
    /// then a seed-independent (`*`) record.
    pub fn lookup(&self, workload: &str, scale: &str, seed: u64) -> Option<&BTreeMap<String, f64>> {
        let key = |s: String| (workload.to_string(), scale.to_string(), s);
        self.runs
            .get(&key(seed.to_string()))
            .or_else(|| self.runs.get(&key("*".into())))
    }
}

/// Checks values as the run produces them.
pub struct Gate {
    recorded: Option<BTreeMap<String, f64>>,
    /// The first value seen for each key: the reference without a table.
    first: BTreeMap<String, f64>,
    /// Every mismatch seen, for the report.
    pub mismatches: Vec<String>,
}

impl Gate {
    /// A gate against `recorded`, or a self-agreement gate when `None`.
    pub fn new(recorded: Option<BTreeMap<String, f64>>) -> Gate {
        Gate {
            recorded,
            first: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    /// Whether values are checked against a recorded table.
    pub fn is_recorded(&self) -> bool {
        self.recorded.is_some()
    }

    /// Checks one value, returning whether it matched. A key the table does
    /// not hold counts as a mismatch; without a table the first value seen
    /// for a key is the reference.
    pub fn check(&mut self, key: &str, value: f64) -> bool {
        let want = match &self.recorded {
            Some(table) => table.get(key).copied(),
            None => Some(*self.first.entry(key.to_string()).or_insert(value)),
        };
        let ok = want.is_some_and(|w| w.to_bits() == value.to_bits());
        if !ok {
            self.mismatches.push(match want {
                Some(w) => format!("{key}: got {value:?}, want {w:?}"),
                None => format!("{key}: got {value:?}, no recorded value"),
            });
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "\
# comment
sort-scale full * mono.makespan_sim_s 12.5
whatif-trace tiny 42 mono.makespan_sim_s 0.1
";

    #[test]
    fn lookup_prefers_the_seed_then_the_wildcard() {
        let e = Expected::parse(TABLE).expect("parses");
        assert_eq!(
            e.lookup("sort-scale", "full", 7).unwrap()["mono.makespan_sim_s"],
            12.5
        );
        assert!(e.lookup("whatif-trace", "tiny", 42).is_some());
        assert!(e.lookup("whatif-trace", "tiny", 43).is_none());
        assert!(e.lookup("bdb-stages", "full", 42).is_none());
    }

    #[test]
    fn gate_compares_bits() {
        let e = Expected::parse(TABLE).expect("parses");
        let mut g = Gate::new(e.lookup("sort-scale", "full", 1).cloned());
        assert!(g.check("mono.makespan_sim_s", 12.5));
        assert!(!g.check("mono.makespan_sim_s", f64::from_bits(12.5f64.to_bits() + 1)));
        assert!(!g.check("unknown", 1.0));
        assert_eq!(g.mismatches.len(), 2);
    }

    #[test]
    fn unrecorded_gate_checks_self_agreement() {
        let mut g = Gate::new(None);
        assert!(g.check("x", 1.0));
        assert!(g.check("x", 1.0));
        assert!(!g.check("x", 2.0));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Expected::parse("a b c d").is_err());
        assert!(Expected::parse("a b c d notanumber").is_err());
    }
}
