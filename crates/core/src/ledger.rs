//! Exact ledgers: the one shape every soak's reconciliation takes.
//!
//! A [`Ledger`] is a list of named `(left, right)` rows that must agree
//! exactly — two independent accountings of the same requests, or an
//! observed count against the value a healthy run must show. Any drift
//! is a dropped or double-counted request, so [`Ledger::check`] names
//! the first row that drifted. Yes/no invariants (the health walk paged,
//! a postmortem was emitted) are rows too: `(what, u64::from(cond), 1)`.
//!
//! Each soak report of the `fbcnn_bench::harness` tree declares its
//! ledger (`ChaosReport::ledger`, `ServeSoakReport::ledger`, …) and its
//! `reconcile()` is that ledger's `check()`. Bench records carry the rows verbatim, so a record's
//! validator re-checks exactly what the run checked.

use serde::{Deserialize, Serialize};

/// One named equality row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerRow {
    /// What the row reconciles, e.g. `"registry ok vs server ok"`.
    pub what: String,
    /// The first accounting.
    pub left: u64,
    /// The second accounting; must equal `left`.
    pub right: u64,
}

/// A list of named equality rows; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    rows: Vec<LedgerRow>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the row `what: left == right`.
    pub fn push(&mut self, what: impl Into<String>, left: u64, right: u64) {
        self.rows.push(LedgerRow {
            what: what.into(),
            left,
            right,
        });
    }

    /// Consumes the ledger into its rows.
    pub fn into_rows(self) -> Vec<LedgerRow> {
        self.rows
    }

    /// Checks every row.
    ///
    /// # Errors
    ///
    /// `"<what> drifted: <left> != <right>"` for the first row that
    /// drifted.
    pub fn check(&self) -> Result<(), String> {
        check_rows(&self.rows)
    }
}

impl<S: Into<String>> Extend<(S, u64, u64)> for Ledger {
    fn extend<I: IntoIterator<Item = (S, u64, u64)>>(&mut self, rows: I) {
        for (what, left, right) in rows {
            self.push(what, left, right);
        }
    }
}

impl<S: Into<String>, const N: usize> From<[(S, u64, u64); N]> for Ledger {
    fn from(rows: [(S, u64, u64); N]) -> Self {
        let mut ledger = Self::new();
        ledger.extend(rows);
        ledger
    }
}

/// [`Ledger::check`] over bare rows (a parsed bench record's ledger).
///
/// # Errors
///
/// `"<what> drifted: <left> != <right>"` for the first row that drifted.
pub fn check_rows(rows: &[LedgerRow]) -> Result<(), String> {
    match rows.iter().find(|r| r.left != r.right) {
        Some(r) => Err(format!("{} drifted: {} != {}", r.what, r.left, r.right)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_the_first_drifted_row() {
        let mut ledger = Ledger::from([("ok", 3, 3), ("failed", 1, 2)]);
        ledger.push(format!("walk {}", "paged"), 0, 1);
        assert_eq!(ledger.check().unwrap_err(), "failed drifted: 1 != 2");
    }

    #[test]
    fn an_agreeing_ledger_passes() {
        let mut ledger = Ledger::from([("ok", 3, 3)]);
        ledger.extend([("walk paged", 1, 1)]);
        assert!(ledger.check().is_ok());
        assert_eq!(ledger.into_rows()[1].what, "walk paged");
    }
}
