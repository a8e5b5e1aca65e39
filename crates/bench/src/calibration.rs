//! Structural validation of `BENCH_forkjoin.json` calibration files.
//!
//! The simulator's own `MachineCalibration::parse_json` is a deliberate
//! three-key scan; it cannot notice a calibration file that was
//! measured at the *wrong thread counts* (e.g. CI requests
//! `--threads 1,2,4` but a stale file measured at `1,2` is lying
//! around). [`validate_calibration_doc`] re-parses the document with the
//! strict JSON parser, checks the scalar constants the simulator needs,
//! and — when the caller says which thread counts it asked for —
//! verifies the measured `series` matches them exactly, in order.

use subsub_omprt::MachineCalibration;
use subsub_telemetry::json::{parse, Json};

/// What a valid calibration document said.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSummary {
    /// Median empty fork-join latency, nanoseconds.
    pub fork_join_ns: f64,
    /// Per-claim dynamic dispatch overhead, nanoseconds.
    pub dispatch_ns: f64,
    /// Thread count the calibration point was measured at.
    pub cal_threads: usize,
    /// Thread counts of the measured series, in document order.
    pub series_threads: Vec<usize>,
}

/// Validates a calibration document: strict JSON, expected schema,
/// finite/positive constants, a usable simulator parse, and — when
/// `requested` is given — a `series` measured at exactly those thread
/// counts with the calibration point taken at the last of them.
pub fn validate_calibration_doc(
    doc: &str,
    requested: Option<&[usize]>,
) -> Result<CalibrationSummary, String> {
    let root = parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    match root.get("schema").and_then(Json::as_str) {
        Some("subsub-forkjoin/v2") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    // The simulator's scanner is the consumer contract: the file must
    // still round-trip through it.
    let cal = MachineCalibration::parse_json(doc)
        .ok_or("not a valid forkjoin calibration document (simulator parse failed)")?;
    if !(cal.fork_join_ns.is_finite() && cal.fork_join_ns > 0.0) {
        return Err(format!(
            "fork_join_ns={} not finite/positive",
            cal.fork_join_ns
        ));
    }
    if !(cal.dispatch_ns.is_finite() && cal.dispatch_ns > 0.0) {
        return Err(format!(
            "dispatch_ns={} not finite/positive",
            cal.dispatch_ns
        ));
    }
    let series = root
        .get("series")
        .and_then(Json::as_array)
        .ok_or("document has no \"series\" array")?;
    let mut series_threads = Vec::with_capacity(series.len());
    for point in series {
        let t = point
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or("series point missing integer \"threads\"")?;
        series_threads.push(t as usize);
    }
    if series_threads.is_empty() {
        return Err("series is empty".to_string());
    }
    if let Some(requested) = requested {
        if series_threads != requested {
            return Err(format!(
                "series measured at thread counts {series_threads:?} but {requested:?} was \
                 requested — stale or mismatched calibration file"
            ));
        }
        if series_threads.last() != Some(&cal.threads) {
            return Err(format!(
                "cal_threads={} is not the last requested thread count {:?}",
                cal.threads,
                series_threads.last()
            ));
        }
    }
    Ok(CalibrationSummary {
        fork_join_ns: cal.fork_join_ns,
        dispatch_ns: cal.dispatch_ns,
        cal_threads: cal.threads,
        series_threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cal_threads: usize, series: &[usize]) -> String {
        let points = series
            .iter()
            .map(|t| format!("{{\"threads\":{t},\"ns\":100.0}}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"subsub-forkjoin/v2\",\"quick\":true,\"cal_threads\":{cal_threads},\
             \"fork_join_ns\":100.0,\"dispatch_ns\":5.00,\"series\":[{points}]}}"
        )
    }

    #[test]
    fn valid_document_passes_with_and_without_request() {
        let d = doc(4, &[1, 2, 4]);
        let s = validate_calibration_doc(&d, None).expect("structurally valid");
        assert_eq!(s.series_threads, vec![1, 2, 4]);
        assert_eq!(s.cal_threads, 4);
        validate_calibration_doc(&d, Some(&[1, 2, 4])).expect("matches request");
    }

    #[test]
    fn thread_count_mismatch_is_rejected() {
        // A stale file measured at 1,2 when CI asked for 1,2,4.
        let d = doc(2, &[1, 2]);
        validate_calibration_doc(&d, None).expect("fine when nothing was requested");
        let err = validate_calibration_doc(&d, Some(&[1, 2, 4])).expect_err("must mismatch");
        assert!(err.contains("[1, 2]") && err.contains("[1, 2, 4]"), "{err}");
    }

    #[test]
    fn wrong_calibration_point_is_rejected() {
        // Series matches the request but the constants were measured at
        // a different team size than the last requested count.
        let d = doc(2, &[1, 2, 4]);
        let err = validate_calibration_doc(&d, Some(&[1, 2, 4])).expect_err("must reject");
        assert!(err.contains("cal_threads=2"), "{err}");
    }

    #[test]
    fn structural_defects_are_rejected() {
        assert!(validate_calibration_doc("not json", None).is_err());
        assert!(validate_calibration_doc("{\"schema\":\"other/v1\"}", None).is_err());
        let no_series = "{\"schema\":\"subsub-forkjoin/v2\",\"cal_threads\":2,\
                         \"fork_join_ns\":100.0,\"dispatch_ns\":5.0}";
        let err = validate_calibration_doc(no_series, None).expect_err("no series");
        assert!(err.contains("series"), "{err}");
        let v1 = doc(4, &[4]).replace("subsub-forkjoin/v2", "subsub-forkjoin/v1");
        assert!(
            validate_calibration_doc(&v1, None).is_err(),
            "v1 is superseded"
        );
        let bad_const = doc(4, &[4]).replace("\"fork_join_ns\":100.0", "\"fork_join_ns\":-1.0");
        assert!(validate_calibration_doc(&bad_const, None).is_err());
    }
}
