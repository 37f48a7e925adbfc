//! Chrome trace-event export and re-parse.
//!
//! [`export_string`] serializes a [`Trace`] in the Chrome trace-event
//! JSON object format: one `"X"` (complete) event per span, one virtual
//! *process* per rank (`pid` = world rank, named via `"M"` metadata
//! events), timestamps/durations in microseconds. Load the file in
//! `chrome://tracing` or <https://ui.perfetto.dev> and each rank shows
//! up as its own swim lane with the phase spans nested inside it.
//!
//! Each span's `args` carry the phase, the optional tensor mode, and
//! its **exclusive** communication delta (total and per collective
//! kind), so the attribution survives the file format. A top-level
//! `"ratucker"` object embeds the session-global totals, which is what
//! lets a standalone validator ([`validate_parsed`], the `tracecheck`
//! binary, the CI smoke step) re-check the partition invariant — per-
//! span bytes summing to the global counters — from the file alone.

use crate::json::{write_escaped, Json, JsonError};
use crate::trace::{SpanEvent, Trace};
use ratucker_mpi::{CollectiveKind, KindSnapshot};
use std::fmt;
use std::path::Path;

/// Serializes `trace` as a Chrome trace-event JSON document.
pub fn export_string(trace: &Trace) -> String {
    let ranks = trace.ranks();
    let totals = trace.totals();
    let mut out = String::with_capacity(256 + 256 * trace.events.len());
    out.push_str("{\n\"traceEvents\": [\n");
    let mut first = true;
    for rank in 0..ranks {
        push_sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
    }
    for e in &trace.events {
        push_sep(&mut out, &mut first);
        push_span(&mut out, e);
    }
    out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"ratucker\": {");
    out.push_str(&format!(
        "\"ranks\": {ranks}, \"total_bytes\": {}, \"total_messages\": {}, \"evicted\": {}, \"kind_bytes\": {{",
        totals.total_bytes(),
        totals.total_messages(),
        trace.evicted
    ));
    let mut first_kind = true;
    for kind in CollectiveKind::ALL {
        if !first_kind {
            out.push_str(", ");
        }
        first_kind = false;
        out.push_str(&format!("\"{}\": {}", kind.name(), totals.bytes_of(kind)));
    }
    out.push_str("}}\n}\n");
    out
}

fn push_sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
}

fn push_span(out: &mut String, e: &SpanEvent) {
    out.push_str("{\"ph\":\"X\",\"cat\":\"ratucker\",");
    out.push_str("\"name\":");
    write_escaped(out, e.phase);
    out.push_str(&format!(
        ",\"pid\":{},\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{",
        e.rank, e.t_start_us, e.dur_us
    ));
    out.push_str("\"phase\":");
    write_escaped(out, e.phase);
    if let Some(mode) = e.mode {
        out.push_str(&format!(",\"mode\":{mode}"));
    }
    out.push_str(&format!(
        ",\"depth\":{},\"self_dur_us\":{},\"self_bytes\":{},\"self_messages\":{},\"gross_bytes\":{},\"gross_messages\":{}",
        e.depth,
        e.self_dur_us,
        e.traffic.total_bytes(),
        e.traffic.total_messages(),
        e.gross_bytes,
        e.gross_messages
    ));
    if e.mem_hwm_bytes > 0 || e.mem_live_bytes > 0 {
        out.push_str(&format!(
            ",\"mem_hwm_bytes\":{},\"mem_live_bytes\":{}",
            e.mem_hwm_bytes, e.mem_live_bytes
        ));
    }
    for kind in CollectiveKind::ALL {
        let bytes = e.traffic.bytes_of(kind);
        let msgs = e.traffic.messages_of(kind);
        if bytes > 0 || msgs_nonzero(msgs) {
            out.push_str(&format!(
                ",\"bytes_{0}\":{1},\"messages_{0}\":{2}",
                kind.name(),
                bytes,
                msgs
            ));
        }
    }
    out.push_str("}}");
}

#[inline]
fn msgs_nonzero(m: u64) -> bool {
    m > 0
}

/// Writes the trace to `path` (creating parent directories).
pub fn write_trace(path: &Path, trace: &Trace) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, export_string(trace))
}

/// A span read back from a trace file.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSpan {
    /// World rank (`pid`).
    pub rank: usize,
    /// Phase label.
    pub phase: String,
    /// Tensor mode tag, if present.
    pub mode: Option<usize>,
    /// Nesting depth.
    pub depth: usize,
    /// Start, µs.
    pub ts_us: u64,
    /// Inclusive duration, µs.
    pub dur_us: u64,
    /// Exclusive duration, µs.
    pub self_dur_us: u64,
    /// Exclusive per-kind traffic.
    pub traffic: KindSnapshot,
    /// Inclusive bytes.
    pub gross_bytes: u64,
    /// Memory-ledger high-water mark (bytes) when the span closed
    /// (0 when the producing run had no charged buffers).
    pub mem_hwm_bytes: u64,
    /// Live ledger-charged bytes when the span closed.
    pub mem_live_bytes: u64,
}

/// A trace file read back: spans plus the embedded session totals.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// Every `"X"` span event.
    pub spans: Vec<ParsedSpan>,
    /// Rank count recorded in the `ratucker` footer.
    pub ranks: usize,
    /// Session-global exclusive byte total from the footer.
    pub total_bytes: u64,
    /// Session-global exclusive message total from the footer.
    pub total_messages: u64,
    /// Ring-buffer evictions during the session (nonzero voids the
    /// partition property).
    pub evicted: u64,
    /// Per-kind byte totals from the footer.
    pub kind_bytes: Vec<(CollectiveKind, u64)>,
}

/// Why a trace file failed to parse or validate.
#[derive(Debug)]
pub enum TraceFileError {
    /// Not valid JSON.
    Json(JsonError),
    /// Valid JSON, wrong shape.
    Structure(String),
    /// Parsed fine but an invariant does not hold.
    Invalid(String),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Json(e) => write!(f, "trace file is not JSON: {e}"),
            TraceFileError::Structure(m) => write!(f, "trace file malformed: {m}"),
            TraceFileError::Invalid(m) => write!(f, "trace file invalid: {m}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<JsonError> for TraceFileError {
    fn from(e: JsonError) -> Self {
        TraceFileError::Json(e)
    }
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, TraceFileError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| TraceFileError::Structure(format!("missing integer field {key:?}")))
}

/// Parses a Chrome trace-event document produced by [`export_string`].
pub fn parse(text: &str) -> Result<ParsedTrace, TraceFileError> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| TraceFileError::Structure("missing traceEvents array".into()))?;
    let mut spans = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "X" {
            continue; // metadata events
        }
        let args = ev
            .get("args")
            .ok_or_else(|| TraceFileError::Structure("span without args".into()))?;
        let mut traffic = KindSnapshot::default();
        for kind in CollectiveKind::ALL {
            if let Some(b) = args.get(&format!("bytes_{}", kind.name())) {
                traffic.bytes[kind.index()] = b.as_u64().unwrap_or(0);
            }
            if let Some(m) = args.get(&format!("messages_{}", kind.name())) {
                traffic.messages[kind.index()] = m.as_u64().unwrap_or(0);
            }
        }
        spans.push(ParsedSpan {
            rank: field_u64(ev, "pid")? as usize,
            phase: args
                .get("phase")
                .and_then(Json::as_str)
                .ok_or_else(|| TraceFileError::Structure("span without phase tag".into()))?
                .to_string(),
            mode: args.get("mode").and_then(Json::as_u64).map(|m| m as usize),
            depth: field_u64(args, "depth")? as usize,
            ts_us: field_u64(ev, "ts")?,
            dur_us: field_u64(ev, "dur")?,
            self_dur_us: field_u64(args, "self_dur_us")?,
            traffic,
            gross_bytes: field_u64(args, "gross_bytes")?,
            // Optional: absent from spans recorded before the ledger
            // existed (and from runs that never charge a buffer).
            mem_hwm_bytes: args
                .get("mem_hwm_bytes")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            mem_live_bytes: args
                .get("mem_live_bytes")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        });
    }
    let footer = doc
        .get("ratucker")
        .ok_or_else(|| TraceFileError::Structure("missing ratucker footer".into()))?;
    let mut kind_bytes = Vec::new();
    if let Some(Json::Obj(members)) = footer.get("kind_bytes") {
        for (name, v) in members {
            let kind = CollectiveKind::from_name(name).ok_or_else(|| {
                TraceFileError::Structure(format!("unknown collective kind {name:?}"))
            })?;
            kind_bytes.push((
                kind,
                v.as_u64().ok_or_else(|| {
                    TraceFileError::Structure(format!("kind_bytes[{name:?}] not an integer"))
                })?,
            ));
        }
    }
    Ok(ParsedTrace {
        spans,
        ranks: field_u64(footer, "ranks")? as usize,
        total_bytes: field_u64(footer, "total_bytes")?,
        total_messages: field_u64(footer, "total_messages")?,
        evicted: field_u64(footer, "evicted")?,
        kind_bytes,
    })
}

/// Validates a parsed trace file: at least one span per rank, no ring
/// evictions, per-span self bytes/messages summing to the embedded
/// global totals, and per-kind sums matching the footer taxonomy —
/// i.e. the on-disk form of the partition invariant.
pub fn validate_parsed(t: &ParsedTrace) -> Result<(), TraceFileError> {
    if t.ranks == 0 {
        return Err(TraceFileError::Invalid("trace contains no ranks".into()));
    }
    if t.evicted > 0 {
        return Err(TraceFileError::Invalid(format!(
            "{} spans were evicted from full ring buffers; byte partition is void",
            t.evicted
        )));
    }
    for rank in 0..t.ranks {
        if !t.spans.iter().any(|s| s.rank == rank) {
            return Err(TraceFileError::Invalid(format!(
                "rank {rank} recorded no spans"
            )));
        }
    }
    let mut sum = KindSnapshot::default();
    for s in &t.spans {
        sum.merge(&s.traffic);
    }
    if sum.total_bytes() != t.total_bytes {
        return Err(TraceFileError::Invalid(format!(
            "per-span self bytes sum to {} but footer records {}",
            sum.total_bytes(),
            t.total_bytes
        )));
    }
    if sum.total_messages() != t.total_messages {
        return Err(TraceFileError::Invalid(format!(
            "per-span self messages sum to {} but footer records {}",
            sum.total_messages(),
            t.total_messages
        )));
    }
    for (kind, bytes) in &t.kind_bytes {
        if sum.bytes_of(*kind) != *bytes {
            return Err(TraceFileError::Invalid(format!(
                "kind {} sums to {} in spans but {} in footer",
                kind.name(),
                sum.bytes_of(*kind),
                bytes
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{span, span_mode, TraceSession};
    use ratucker_mpi::{sum_op, Universe};

    #[test]
    fn export_parse_round_trip_preserves_everything() {
        let session = TraceSession::start();
        let u = Universe::new(3);
        u.run(|c| {
            let _root = span(&c, "run");
            {
                let _s = span_mode(&c, "TTM", 2);
                let _ = c.try_allreduce(vec![1.0f64; 8], sum_op).unwrap();
            }
            let _g = span(&c, "Gram");
            let _ = c.try_allgatherv(vec![c.rank() as u64]).unwrap();
        });
        let trace = session.finish();
        let text = export_string(&trace);
        let parsed = parse(&text).expect("round trip parse");
        assert_eq!(parsed.ranks, 3);
        assert_eq!(parsed.spans.len(), trace.events.len());
        assert_eq!(parsed.total_bytes, trace.totals().total_bytes());
        // Every original event is found with identical attribution.
        for e in &trace.events {
            let m = parsed
                .spans
                .iter()
                .find(|s| {
                    s.rank == e.rank
                        && s.phase == e.phase
                        && s.ts_us == e.t_start_us
                        && s.mode == e.mode
                })
                .unwrap_or_else(|| panic!("span {e:?} missing after round trip"));
            assert_eq!(m.traffic, e.traffic);
            assert_eq!(m.depth, e.depth);
            assert_eq!(m.dur_us, e.dur_us);
            assert_eq!(m.self_dur_us, e.self_dur_us);
            assert_eq!(m.gross_bytes, e.gross_bytes);
            assert_eq!(m.mem_hwm_bytes, e.mem_hwm_bytes);
            assert_eq!(m.mem_live_bytes, e.mem_live_bytes);
        }
        validate_parsed(&parsed).expect("file-level partition invariant");
        // And the file totals match what the universe actually moved.
        assert_eq!(parsed.total_bytes, u.traffic().snapshot().0);
    }

    #[test]
    fn validator_rejects_tampered_totals() {
        let session = TraceSession::start();
        Universe::launch(2, |c| {
            let _root = span(&c, "run");
            let _ = c.try_allreduce(vec![2.0f64; 4], sum_op).unwrap();
        });
        let trace = session.finish();
        let text = export_string(&trace);
        let mut parsed = parse(&text).unwrap();
        parsed.total_bytes += 1;
        assert!(matches!(
            validate_parsed(&parsed),
            Err(TraceFileError::Invalid(_))
        ));
        // Missing rank detection.
        let mut parsed2 = parse(&text).unwrap();
        parsed2.spans.retain(|s| s.rank != 1);
        assert!(validate_parsed(&parsed2).is_err());
    }
}
