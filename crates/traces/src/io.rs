//! JSON persistence for traces and trace sets.
//!
//! The adversarial framework's main artifact is a set of traces; writing
//! them to disk makes the paper's key reproducibility claim concrete:
//! "simply re-run a trace produced by the adversary".

use crate::Trace;
use std::fs;
use std::io;
use std::path::Path;

/// Save a set of traces as pretty-printed JSON.
pub fn save_traces(path: impl AsRef<Path>, traces: &[Trace]) -> io::Result<()> {
    let json = serde_json::to_string_pretty(traces)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, json)
}

/// Load a set of traces saved by [`save_traces`]. Every trace is validated;
/// a malformed file yields a descriptive [`io::ErrorKind::InvalidData`]
/// error naming the file and the offending trace/segment instead of
/// panicking.
pub fn load_traces(path: impl AsRef<Path>) -> io::Result<Vec<Trace>> {
    let path = path.as_ref();
    // Fault point `traces.load`: `panic@traces.load:<n>` crashes the nth
    // trace-set load of the process (e.g. to kill a bench run while it
    // reads its corpus).
    let _ = fault::check("traces.load");
    let json = fs::read_to_string(path)?;
    let traces: Vec<Trace> = serde_json::from_str(&json).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a valid trace set: {e}", path.display()),
        )
    })?;
    for t in &traces {
        t.try_validate().map_err(|msg| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {msg}", path.display()))
        })?;
    }
    Ok(traces)
}

/// Write a simple CSV of `(series name, x, y)` rows — the format every
/// experiment binary uses for figure data.
pub fn write_csv_series(
    path: impl AsRef<Path>,
    header: &str,
    rows: &[(String, f64, f64)],
) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for (name, x, y) in rows {
        out.push_str(&format!("{name},{x},{y}\n"));
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Segment, Trace};

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join("traces-io-test");
        let path = dir.join("set.json");
        let traces = vec![
            Trace::new("a", vec![Segment::bw(1.0, 2.0, 30.0)]),
            Trace::new(
                "b",
                vec![Segment {
                    duration_s: 0.03,
                    bandwidth_mbps: 10.0,
                    latency_ms: 20.0,
                    loss_rate: 0.05,
                }],
            ),
        ];
        save_traces(&path, &traces).unwrap();
        let back = load_traces(&path).unwrap();
        assert_eq!(traces, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("traces-io-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json").unwrap();
        let err = load_traces(&path).unwrap_err();
        assert!(err.to_string().contains("bad.json"), "error names the file: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_nonphysical_traces_with_context() {
        let dir = std::env::temp_dir().join("traces-io-test-nan");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nan.json");
        // Hand-written JSON: Trace::new would panic before we could save it.
        std::fs::write(
            &path,
            r#"[{"name":"poison","segments":[{"duration_s":1.0,"bandwidth_mbps":null,"latency_ms":0.0,"loss_rate":0.0}]}]"#,
        )
        .unwrap();
        let err = load_traces(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("nan.json"), "{msg}");
        assert!(msg.contains("poison"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_series_written() {
        let dir = std::env::temp_dir().join("traces-io-test-csv");
        let path = dir.join("fig.csv");
        write_csv_series(
            &path,
            "series,x,y",
            &[("qoe".to_string(), 1.0, 2.5), ("qoe".to_string(), 2.0, 2.6)],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.starts_with("series,x,y\n"));
        assert!(s.contains("qoe,1,2.5"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
