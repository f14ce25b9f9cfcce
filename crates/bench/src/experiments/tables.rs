//! Tables I–III.

use fast_bcnn::{Brng, HwConfig, SoftwareBernoulli};
use fbcnn_accel::resources::{self, ResourceReport, VIRTEX7_VC709};
use fbcnn_bayes::measured_drop_rate;
use serde::{Deserialize, Serialize};

/// Table I: one hardware design row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Design name.
    pub design: String,
    /// Total multipliers.
    pub total_macs: usize,
    /// Number of PEs.
    pub tm: usize,
    /// Multipliers per PE.
    pub tn: usize,
    /// Counting lanes per PE.
    pub counting_lanes: usize,
}

/// Regenerates Table I.
pub fn table1() -> Vec<Table1Row> {
    let mut rows = vec![Table1Row {
        design: "Baseline".into(),
        total_macs: HwConfig::baseline().total_macs(),
        tm: HwConfig::baseline().tm(),
        tn: HwConfig::baseline().tn(),
        counting_lanes: 0,
    }];
    for cfg in HwConfig::design_space() {
        rows.push(Table1Row {
            design: format!("Fast-BCNN{}", cfg.tm()),
            total_macs: cfg.total_macs(),
            tm: cfg.tm(),
            tn: cfg.tn(),
            counting_lanes: cfg.counting_lanes(),
        });
    }
    rows
}

/// Table II: resource usage plus device utilization for FB-64.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// Absolute usage per module group.
    pub report: ResourceReport,
    /// Utilization fractions `(lut, ff, bram)` for the three groups.
    pub conv_utilization: (f64, f64, f64),
    /// Prediction-unit utilization fractions.
    pub prediction_utilization: (f64, f64, f64),
    /// Central-predictor utilization fractions.
    pub central_utilization: (f64, f64, f64),
}

/// Regenerates Table II (FB-64 on the VC709).
pub fn table2() -> Table2 {
    let report = resources::estimate(&HwConfig::fast_bcnn(64));
    Table2 {
        conv_utilization: report.convolution_units.utilization(&VIRTEX7_VC709),
        prediction_utilization: report.prediction_units.utilization(&VIRTEX7_VC709),
        central_utilization: report.central_predictor.utilization(&VIRTEX7_VC709),
        report,
    }
}

/// Table III: one measured drop-rate row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Nominal drop rate `p`.
    pub nominal: f64,
    /// LFSR BRNG rate over 2000 cycles.
    pub lfsr_2000: f64,
    /// LFSR BRNG rate over 4000 cycles.
    pub lfsr_4000: f64,
    /// Software generator rate over 2000 samples.
    pub software_2000: f64,
    /// Software generator rate over 4000 samples.
    pub software_4000: f64,
}

/// Regenerates Table III: empirical drop rates at p ∈ {0.5, 0.2, 0.1}.
pub fn table3(seed: u64) -> Vec<Table3Row> {
    [0.5, 0.2, 0.1]
        .iter()
        .map(|&p| {
            let measure_lfsr = |n: usize| {
                let mut brng = Brng::new(p, seed);
                measured_drop_rate(|| brng.next_bit(), n)
            };
            let measure_sw = |n: usize| {
                let mut sw = SoftwareBernoulli::new(p, seed);
                measured_drop_rate(|| sw.next_bit(), n)
            };
            Table3Row {
                nominal: p,
                lfsr_2000: measure_lfsr(2000),
                lfsr_4000: measure_lfsr(4000),
                software_2000: measure_sw(2000),
                software_4000: measure_sw(4000),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.total_macs == 256));
        assert_eq!(rows[1].counting_lanes, 128);
        assert_eq!(rows[4].counting_lanes, 16);
    }

    #[test]
    fn table2_prediction_overhead_below_one_percent() {
        let t = table2();
        assert!(t.prediction_utilization.0 < 0.01);
        assert!(t.prediction_utilization.1 < 0.01);
        assert!(t.conv_utilization.0 > 0.5);
    }

    #[test]
    fn table3_rates_are_accurate() {
        for row in table3(42) {
            for measured in [
                row.lfsr_2000,
                row.lfsr_4000,
                row.software_2000,
                row.software_4000,
            ] {
                assert!(
                    (measured - row.nominal).abs() < 0.03,
                    "measured {measured} vs nominal {}",
                    row.nominal
                );
            }
        }
    }
}
