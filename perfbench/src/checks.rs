//! Output checks.  Each compares the program's output against a computation
//! made apart from the program, or against a property the method must have;
//! none compares against a stored copy of earlier output.  Every check has a
//! self-test below that feeds it a corrupted input and expects a rejection.

use bitmod::quant::Granularity;
use bitmod::sweep::{SweepDtype, SweepRecord, SweepReport};
use std::collections::BTreeMap;

/// The exact serialized form of a record: the vendored JSON writer prints
/// every finite `f64` with round-trip precision, so equal strings mean
/// bit-equal records.
pub fn record_json(record: &SweepRecord) -> String {
    serde_json::to_string(record).expect("sweep records serialize")
}

/// Every record of `got` equals, bit for bit and in order, the record of
/// `want` at the same position.
pub fn records_equal(got: &[SweepRecord], want: &[SweepRecord], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} records, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if record_json(g) != record_json(w) {
            return Err(format!(
                "{what}: record {i} ({}) differs from the independent computation",
                g.point.label()
            ));
        }
    }
    Ok(())
}

/// Properties every record of one sweep (one seed) must have.
pub fn sweep_properties(report: &SweepReport) -> Result<(), String> {
    let mut fp16_by_model = BTreeMap::new();
    for r in &report.records {
        let rep = &r.report;
        let label = r.point.label();
        let ppls = [
            rep.fp16_perplexity.wiki,
            rep.fp16_perplexity.c4,
            rep.proxy_perplexity.wiki,
            rep.proxy_perplexity.c4,
        ];
        if ppls.iter().any(|p| !p.is_finite() || *p < 1.0) {
            return Err(format!("{label}: perplexity not finite and >= 1: {ppls:?}"));
        }
        if !(0.0..=100.0).contains(&rep.proxy_accuracy_percent) {
            return Err(format!(
                "{label}: accuracy {} outside [0, 100]",
                rep.proxy_accuracy_percent
            ));
        }
        let fp16 = (
            rep.fp16_perplexity.wiki.to_bits(),
            rep.fp16_perplexity.c4.to_bits(),
        );
        if *fp16_by_model.entry(r.point.model.name()).or_insert(fp16) != fp16 {
            return Err(format!(
                "{label}: fp16 perplexity differs within one model and seed"
            ));
        }
        if rep.bitmod_perf.macs != rep.baseline_perf.macs {
            return Err(format!(
                "{label}: BitMoD MACs {} != baseline MACs {}",
                rep.bitmod_perf.macs, rep.baseline_perf.macs
            ));
        }
        let speedup = rep.baseline_perf.total_cycles() / rep.bitmod_perf.total_cycles();
        if rep.speedup_over_fp16.to_bits() != speedup.to_bits() {
            return Err(format!(
                "{label}: speedup {} != baseline cycles / BitMoD cycles = {speedup}",
                rep.speedup_over_fp16
            ));
        }
    }
    bit_width_properties(&report.records)
}

/// Cross-record properties over the bit-width and granularity axes:
/// BitMoD-accelerator cycles at 3 bits never exceed those at 4 bits, the
/// metadata overhead `effective_bits - bits` does not depend on the bit
/// width, and group size 64 never stores fewer bits than group size 128.
fn bit_width_properties(records: &[SweepRecord]) -> Result<(), String> {
    let find = |r: &SweepRecord, bits: u8, granularity: Granularity| {
        records.iter().find(|o| {
            let (p, q) = (&o.point, &r.point);
            p.model == q.model
                && p.dtype == q.dtype
                && p.method == q.method
                && p.task == q.task
                && p.accelerator == q.accelerator
                && p.scale_dtype == q.scale_dtype
                && p.calib_size == q.calib_size
                && p.bits == bits
                && p.granularity == granularity
        })
    };
    for r in records {
        let p = &r.point;
        let label = p.label();
        if p.bits == 3 {
            if let Some(r4) = find(r, 4, p.granularity) {
                let (c3, c4) = (
                    r.report.bitmod_perf.total_cycles(),
                    r4.report.bitmod_perf.total_cycles(),
                );
                if c3 > c4 {
                    return Err(format!("{label}: {c3} cycles at 3 bits > {c4} at 4 bits"));
                }
                let (o3, o4) = (
                    r.report.effective_bits_per_weight - 3.0,
                    r4.report.effective_bits_per_weight - 4.0,
                );
                if o3 != o4 {
                    return Err(format!(
                        "{label}: metadata overhead {o3} bits at 3 bits != {o4} at 4 bits"
                    ));
                }
            }
        }
        if p.granularity == Granularity::PerGroup(64) {
            if let Some(r128) = find(r, p.bits, Granularity::PerGroup(128)) {
                if r.report.effective_bits_per_weight < r128.report.effective_bits_per_weight {
                    return Err(format!(
                        "{label}: g64 stores {} bits per weight, below g128's {}",
                        r.report.effective_bits_per_weight, r128.report.effective_bits_per_weight
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Mean perplexity increase over FP16 of the 3-bit records of `dtype`.
fn mean_delta_ppl_3bit(reports: &[&SweepReport], dtype: SweepDtype) -> Option<f64> {
    let deltas: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.point.dtype == dtype && r.point.bits == 3)
        .map(|r| r.report.proxy_perplexity.mean() - r.report.fp16_perplexity.mean())
        .collect();
    (!deltas.is_empty()).then(|| deltas.iter().sum::<f64>() / deltas.len() as f64)
}

/// The paper's 3-bit ordering: over every (model, seed) pair of the run,
/// BitMoD's mean perplexity increase is below INT-Asym's.
pub fn bitmod_beats_int_asym(reports: &[&SweepReport]) -> Result<(), String> {
    let bitmod =
        mean_delta_ppl_3bit(reports, SweepDtype::BitMod).ok_or("no 3-bit BitMoD records")?;
    let int_asym =
        mean_delta_ppl_3bit(reports, SweepDtype::IntAsym).ok_or("no 3-bit INT-Asym records")?;
    if bitmod < int_asym {
        Ok(())
    } else {
        Err(format!(
            "3-bit mean dPPL: BitMoD {bitmod} is not below INT-Asym {int_asym}"
        ))
    }
}

/// A count the daemon reports equals the count predicted from the schedule.
pub fn count_matches(name: &str, observed: u64, predicted: u64) -> Result<(), String> {
    if observed == predicted {
        Ok(())
    } else {
        Err(format!(
            "{name}: daemon reports {observed}, the schedule predicts {predicted}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitmod::llm::config::LlmModel;
    use bitmod::llm::proxy::ProxyConfig;
    use bitmod::sweep::SweepConfig;
    use std::sync::OnceLock;

    /// A small real sweep (two models, both dtypes, 3 and 4 bits, g128 and
    /// g64, tiny proxy) shared by the self-tests.
    fn sample() -> &'static SweepReport {
        static REPORT: OnceLock<SweepReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            SweepConfig::new(vec![LlmModel::Phi2B, LlmModel::Opt1_3B], vec![3, 4])
                .with_granularities(vec![Granularity::PerGroup(128), Granularity::PerGroup(64)])
                .with_proxy(ProxyConfig::tiny())
                .with_seed(3)
                .run()
        })
    }

    fn corrupted(edit: impl FnOnce(&mut SweepReport)) -> SweepReport {
        let mut r = sample().clone();
        edit(&mut r);
        r
    }

    #[test]
    fn a_real_sweep_passes_every_check() {
        let r = sample();
        sweep_properties(r).unwrap();
        records_equal(&r.records, &r.records, "self").unwrap();
    }

    #[test]
    fn rejects_a_perturbed_perplexity() {
        let r = sample();
        let bad = corrupted(|r| r.records[2].report.proxy_perplexity.wiki *= 1.0 + 1e-12);
        assert!(records_equal(&bad.records, &r.records, "t").is_err());
        let fp16 = corrupted(|r| r.records[1].report.fp16_perplexity.c4 += 1e-9);
        assert!(sweep_properties(&fp16).is_err());
        let nan = corrupted(|r| r.records[0].report.proxy_perplexity.c4 = f64::NAN);
        assert!(sweep_properties(&nan).is_err());
        let below_one = corrupted(|r| r.records[0].report.proxy_perplexity.c4 = 0.5);
        assert!(sweep_properties(&below_one).is_err());
    }

    #[test]
    fn rejects_unequal_mac_counts() {
        let bad = corrupted(|r| r.records[0].report.bitmod_perf.macs += 1.0);
        assert!(sweep_properties(&bad).is_err());
    }

    #[test]
    fn rejects_a_wrong_speedup_and_out_of_range_accuracy() {
        let speedup = corrupted(|r| r.records[3].report.speedup_over_fp16 *= 1.0 + 1e-12);
        assert!(sweep_properties(&speedup).is_err());
        let acc = corrupted(|r| r.records[3].report.proxy_accuracy_percent = 100.5);
        assert!(sweep_properties(&acc).is_err());
    }

    #[test]
    fn rejects_bit_width_and_granularity_violations() {
        let i4 = sample()
            .records
            .iter()
            .position(|r| r.point.bits == 4)
            .unwrap();
        let cycles = corrupted(|r| r.records[i4].report.bitmod_perf.decode_cycles *= 0.5);
        assert!(sweep_properties(&cycles).is_err());
        let overhead = corrupted(|r| r.records[i4].report.effective_bits_per_weight += 0.001);
        assert!(sweep_properties(&overhead).is_err());
        let g64 = sample()
            .records
            .iter()
            .position(|r| r.point.granularity == Granularity::PerGroup(64) && r.point.bits == 3)
            .unwrap();
        let below = corrupted(|r| r.records[g64].report.effective_bits_per_weight -= 1.0);
        assert!(sweep_properties(&below).is_err());
    }

    #[test]
    fn rejects_records_that_differ_from_the_direct_sweep() {
        let r = sample();
        let reordered = corrupted(|r| r.records.swap(0, 1));
        assert!(records_equal(&reordered.records, &r.records, "t").is_err());
        let missing = corrupted(|r| {
            r.records.pop();
        });
        assert!(records_equal(&missing.records, &r.records, "t").is_err());
        let relabeled = corrupted(|r| r.records[0].report.method.push('x'));
        assert!(records_equal(&relabeled.records, &r.records, "t").is_err());
    }

    #[test]
    fn rejects_an_inverted_3bit_ordering() {
        let good = sample();
        bitmod_beats_int_asym(&[good]).unwrap();
        let bad = corrupted(|r| {
            for rec in &mut r.records {
                if rec.point.dtype == SweepDtype::BitMod {
                    rec.report.proxy_perplexity.wiki += 1e6;
                }
            }
        });
        assert!(bitmod_beats_int_asym(&[&bad]).is_err());
    }
}
