//! Spans recorded in the benchmark's own memory and written out when the
//! run ends. Nothing here reaches into the program: a span is the time
//! between two `Instant`s the benchmark took around a call it made or a
//! request it sent.

use crate::json::quote;
use crate::loadgen::OpKind;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One request as the load generator saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    pub req: u64,
    pub kind: OpKind,
    /// Send (closed loop) or due (open loop) time, ns since the epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The reply's `us` member: the server's own admission-to-response
    /// time, carried as an attribute.
    pub server_us: Option<u64>,
    pub ok: bool,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request share this.
    pub req: Option<u64>,
    pub name: String,
    pub layer: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Extra numeric attributes (`server_us`, counts at this boundary).
    pub attrs: Vec<(String, f64)>,
}

/// An in-memory span log. `first_id` keeps the ids of two recorders
/// (driver and layer probe) apart in one output file.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(first_id: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        layer: &str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, layer, parent, req, start_ns, end_ns, Vec::new())
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record_ns(
        &mut self,
        name: &str,
        layer: &str,
        parent: Option<u64>,
        req: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(String, f64)>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name: name.to_owned(),
            layer: layer.to_owned(),
            start_ns,
            end_ns,
            attrs,
        });
        id
    }

    /// Adds the load generator's request spans under `parent`.
    pub fn add_requests(&mut self, parent: Option<u64>, layer: &str, requests: &[RequestSpan]) {
        for r in requests {
            let name = match r.kind {
                OpKind::Lookup => "lookup",
                OpKind::Upsert => "upsert",
                OpKind::Delete => "delete",
                OpKind::Compact => "compact",
            };
            let mut attrs = vec![("ok".to_owned(), f64::from(u8::from(r.ok)))];
            if let Some(us) = r.server_us {
                attrs.push(("server_us".to_owned(), us as f64));
            }
            self.record_ns(
                name,
                layer,
                parent,
                Some(r.req),
                r.start_ns,
                r.end_ns,
                attrs,
            );
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer self time in seconds: each span's duration minus the
    /// part of it its child spans cover (overlapping children counted
    /// once), summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get_mut(&s.id).map_or(0, |kids| {
                kids.sort_unstable();
                let (mut total, mut hi) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.clamp(hi, s.end_ns);
                    let b = b.clamp(hi, s.end_ns);
                    total += b - a;
                    hi = hi.max(b);
                }
                total
            });
            let own = (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered);
            *by_layer.entry(s.layer.clone()).or_default() += own as f64 / 1e9;
        }
        by_layer
    }

    /// Writes every span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"name\":{},\"layer\":{},\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{}",
                quote(&s.name),
                quote(&s.layer),
                s.start_ns,
                s.end_ns,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.req.map_or("null".to_owned(), |r| r.to_string()),
            )?;
            for (k, v) in &s.attrs {
                write!(out, ",{}:{}", quote(k), v)?;
            }
            out.write_all(b"}\n")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Tracer::new(1);
        let root = t.record_ns("pass", "bench", None, None, 0, 1_000_000_000, vec![]);
        // Two overlapping children cover [100ms, 500ms]; one sticks out
        // past the parent and is clipped to it.
        t.record_ns(
            "a",
            "sparse",
            Some(root),
            None,
            100_000_000,
            400_000_000,
            vec![],
        );
        t.record_ns(
            "b",
            "sparse",
            Some(root),
            None,
            300_000_000,
            500_000_000,
            vec![],
        );
        t.record_ns(
            "c",
            "text",
            Some(root),
            None,
            900_000_000,
            1_200_000_000,
            vec![],
        );
        let by = t.self_time_by_layer();
        assert!((by["bench"] - 0.5).abs() < 1e-9, "{by:?}");
        assert!((by["sparse"] - 0.5).abs() < 1e-9, "{by:?}");
        assert!((by["text"] - 0.3).abs() < 1e-9, "{by:?}");
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut t = Tracer::new(7);
        let root = t.record_ns("phase", "loadgen", None, None, 0, 10, vec![]);
        t.add_requests(
            Some(root),
            "serve",
            &[RequestSpan {
                req: 3,
                kind: OpKind::Lookup,
                start_ns: 1,
                end_ns: 9,
                server_us: Some(4),
                ok: true,
            }],
        );
        let path = std::env::temp_dir().join(format!("e2e-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(lines[1]).expect("json");
        assert_eq!(v.num("id"), Some(8.0));
        assert_eq!(v.num("parent"), Some(7.0));
        assert_eq!(v.num("req"), Some(3.0));
        assert_eq!(v.str("layer"), Some("serve"));
        assert_eq!(v.num("server_us"), Some(4.0));
    }
}
