//! The traced run: a single-threaded, in-process replay of a workload's
//! exact request list with no sockets.
//!
//! Each request goes twice through the program: once through the whole
//! `Api::handle` (the reference, timed as one block), and once through a
//! mirror that makes the handler's public calls in handler order and
//! records a span around each (name, start, end, parent). The two own
//! separate but identical state, so they answer the same bytes; the
//! ratio of the mirror's named layers to the reference's handle time is
//! the table's coverage.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use td_core::{explain, project, ProjectionOptions};
use td_model::{
    diff_schemas, parse_schema, write_snapshot_file, AnalysisPrecision, DispatchCacheStats, Schema,
};
use td_server::json::{quote, str_array, Json};
use td_server::{derivation_json, Api, Registry, SchemaEntry};

use crate::check::resolve;
use crate::inputs::{Kind, Req, View, Workload, SCHEMA_NAME};

/// Which part of the stream a replayed request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Measured(usize),
    Probe,
}

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder. Spans nest by call structure: a span opened
/// inside another's closure is its child.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
        }
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn push(&self, name: &'static str, start: Duration, end: Duration) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start,
            end,
            parent: self.current.get(),
        });
        spans.len() - 1
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.push(name, self.now(), Duration::ZERO);
        let parent = self.current.replace(Some(idx));
        let out = f();
        self.current.set(parent);
        self.spans.borrow_mut()[idx].end = self.now();
        out
    }
}

/// Counts that must repeat exactly across two replays of one seed.
pub type Counts = BTreeMap<&'static str, u64>;

fn add_cache_delta(counts: &mut Counts, before: &DispatchCacheStats, after: &DispatchCacheStats) {
    type Field = fn(&DispatchCacheStats) -> u64;
    let fields: [(&'static str, Field); 8] = [
        ("cache.cpl_hits", |s| s.cpl_hits),
        ("cache.cpl_misses", |s| s.cpl_misses),
        ("cache.dispatch_hits", |s| s.dispatch_hits),
        ("cache.dispatch_misses", |s| s.dispatch_misses),
        ("cache.index_hits", |s| s.index_hits),
        ("cache.index_misses", |s| s.index_misses),
        ("cache.delta_evictions", |s| s.delta_evictions),
        ("cache.delta_survivals", |s| s.delta_survivals),
    ];
    for (key, field) in fields {
        *counts.entry(key).or_default() += field(after).saturating_sub(field(before));
    }
}

/// The handler mirror: registered entries plus the counters it keeps.
struct Mirror<'t> {
    tr: &'t Tracer,
    entries: BTreeMap<String, Arc<SchemaEntry>>,
    snapshot_dir: Option<PathBuf>,
    /// Where the probe writes its snapshot when `snapshot_dir` is unset.
    probe_dir: PathBuf,
    counts: Counts,
}

type Answer = Result<(u16, String), String>;

/// The fields of a compute request body the mirror needs.
struct Body {
    tenant: String,
    view: Option<View>,
    method: Option<String>,
    requests: Option<String>,
}

impl<'t> Mirror<'t> {
    fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    fn handle(&mut self, wl: &Workload, req: &Req, phase: Phase) -> Answer {
        let tr = self.tr;
        let answer = match req.kind {
            Kind::SchemasPut => {
                let tenant = &wl.tenants[req.tenant].name;
                let answer = self.put(tenant, wl.body(req));
                // Where the server runs without --snapshot-dir, the probe
                // still times the persistence steps beside its PUT, so
                // those layers have a sample on every workload.
                if phase == Phase::Probe && self.snapshot_dir.is_none() {
                    let dir = self.probe_dir.clone();
                    self.persist(&dir, tenant)?;
                }
                answer
            }
            Kind::SchemasGet => {
                let tenant = &wl.tenants[req.tenant].name;
                let entry = tr.span("registry.resolve", || self.entry(tenant))?;
                let body = tr.span("api.render", || {
                    format!(
                        "{{\"tenant\": {}, \"name\": {}, \"version\": {}, \"schema\": {}}}\n",
                        quote(tenant),
                        quote(SCHEMA_NAME),
                        entry.version,
                        quote(&entry.text)
                    )
                });
                Ok((200, body))
            }
            kind => {
                let text = wl.body(req);
                let doc = tr.span("api.json_parse", || Json::parse(text));
                let body = parse_body(&doc.map_err(|e| e.to_string())?)?;
                self.compute(kind, &body)
            }
        };
        if let Ok((_, body)) = &answer {
            self.count("api.response_bytes", body.len() as u64);
        }
        answer
    }

    fn entry(&self, tenant: &str) -> Result<Arc<SchemaEntry>, String> {
        self.entries
            .get(tenant)
            .cloned()
            .ok_or_else(|| format!("tenant `{tenant}` has no schema"))
    }

    fn compute(&mut self, kind: Kind, body: &Body) -> Answer {
        let tr = self.tr;
        match kind {
            Kind::Analyze => {
                // Analysis runs on the shared snapshot itself, not a fork.
                let entry = tr.span("registry.resolve", || self.entry(&body.tenant))?;
                let schema = entry.snapshot.schema();
                let view = body.view.as_ref().ok_or("analyze without a view")?;
                let (source, attrs) = resolve(schema, view)?;
                let outcome = tr.span("analyze.analyze", || {
                    td_analyze::analyze(
                        schema,
                        Some((source, &attrs)),
                        AnalysisPrecision::default(),
                    )
                });
                let s = &outcome.stats;
                let out = tr.span("api.render", || {
                    format!(
                        "{{\"precision\": {}, \"schema_cached\": {}, \"request_cached\": {}, \
                         \"fallback_syntactic\": {}, \"fallback_semantic\": {}, \"report\": {}}}\n",
                        quote(s.precision.as_str()),
                        s.schema_cached,
                        s.request_cached,
                        s.fallback_syntactic,
                        s.fallback_semantic,
                        outcome.report.render_json().trim_end(),
                    )
                });
                Ok((200, out))
            }
            Kind::Batch => {
                let entry = tr.span("registry.resolve", || self.entry(&body.tenant))?;
                let text = body.requests.as_deref().ok_or("batch without requests")?;
                let (outcome, base) = tr.span("td_driver.batch", || {
                    let deriver = td_driver::BatchDeriver::from_snapshot(entry.snapshot.clone());
                    let base = deriver.snapshot().clone();
                    let requests = td_driver::parse_requests(base.schema(), text)
                        .map_err(|e| e.to_string())?;
                    let deriver = deriver.options(ProjectionOptions::default()).lint(true);
                    deriver.warm();
                    Ok::<_, String>((deriver.run(&requests), base))
                })?;
                let s = &outcome.stats;
                let out = tr.span("api.render", || {
                    format!(
                        "{{\"report\": {}, \"requests\": {}, \"ok\": {}, \"errors\": {}, \"invariant_violations\": {}}}\n",
                        quote(&outcome.render(base.schema())),
                        s.requests,
                        s.succeeded,
                        s.failed,
                        s.invariant_violations
                    )
                });
                Ok((200, out))
            }
            _ => {
                let view = body.view.as_ref().ok_or("request without a view")?;
                let entry = tr.span("registry.resolve", || {
                    let entry = self.entry(&body.tenant)?;
                    if let Ok(source) = entry.snapshot.schema().type_id(&view.ty) {
                        entry.warm_for(source);
                    }
                    Ok::<_, String>(entry)
                })?;
                let shared_before = entry.snapshot.schema().dispatch_cache_stats();
                let mut schema = tr.span("snapshot.fork", || entry.snapshot.fork());
                let fork_before = schema.dispatch_cache_stats();
                let (source, attrs) = resolve(&schema, view)?;
                let out = match kind {
                    Kind::Project => {
                        let start = tr.now();
                        let d = tr.span("project", || {
                            project(&mut schema, source, &attrs, &ProjectionOptions::default())
                        });
                        let d = d.map_err(|e| e.to_string())?;
                        // The seven stages ran back to back at the end of
                        // project(); lay them out from its end. What is
                        // left of the project span is untimed work (the
                        // pre-derivation clone the I1–I5 check compares
                        // against).
                        let end = tr.spans.borrow().last().map(|s| s.end).unwrap_or(start);
                        let st = &d.stage_times;
                        let stages = [
                            ("project.applicability", st.applicability),
                            ("project.factor_state", st.factor_state),
                            ("project.flow_analysis", st.flow_analysis),
                            ("project.augment", st.augment),
                            ("project.factor_methods", st.factor_methods),
                            ("project.retype", st.retype),
                            ("project.invariants", st.invariants),
                        ];
                        let project_idx = tr.spans.borrow().len() - 1;
                        let mut at = end.saturating_sub(st.total()).max(start);
                        let saved = tr.current.replace(Some(project_idx));
                        for (name, dur) in stages {
                            let stop = (at + dur).min(end);
                            tr.push(name, at, stop);
                            at = stop;
                        }
                        tr.current.set(saved);
                        if let Some(r) = &d.invariants {
                            self.count(
                                "project.dispatch_tuples_checked",
                                r.dispatch_tuples_checked as u64,
                            );
                            self.count("project.invariant_failures", r.violations.len() as u64);
                        }
                        self.count(
                            "project.surrogates",
                            (d.factor_surrogates.len() + d.augment_surrogates.len()) as u64,
                        );
                        tr.span("api.render", || derivation_json(&schema, &d))
                    }
                    Kind::Applicable => {
                        let r = tr
                            .span("core.applicable", || {
                                td_core::compute_applicability_indexed(
                                    &schema, source, &attrs, false,
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        tr.span("api.render", || {
                            let labels = |ms: &[td_model::MethodId]| {
                                str_array(ms.iter().map(|&m| schema.method_label(m).to_string()))
                            };
                            format!(
                                "{{\"applicable\": {}, \"not_applicable\": {}}}\n",
                                labels(&r.applicable),
                                labels(&r.not_applicable)
                            )
                        })
                    }
                    Kind::Lint => {
                        let report = tr.span("core.lint", || {
                            td_core::lint(&schema, Some((source, &attrs)))
                        });
                        tr.span("api.render", || report.render_json())
                    }
                    Kind::Explain => {
                        let label = body.method.as_deref().ok_or("explain without a method")?;
                        let method = schema.method_by_label(label).map_err(|e| e.to_string())?;
                        let e =
                            tr.span("core.explain", || explain(&schema, source, &attrs, method));
                        let e = e.map_err(|e| e.to_string())?;
                        tr.span("api.render", || {
                            format!(
                                "{{\"method\": {}, \"applicable\": {}, \"explanation\": {}}}\n",
                                quote(label),
                                e.is_applicable(),
                                quote(&e.render(&schema))
                            )
                        })
                    }
                    other => unreachable!("{other:?} is not a view endpoint"),
                };
                add_cache_delta(
                    &mut self.counts,
                    &fork_before,
                    &schema.dispatch_cache_stats(),
                );
                add_cache_delta(
                    &mut self.counts,
                    &shared_before,
                    &entry.snapshot.schema().dispatch_cache_stats(),
                );
                Ok((200, out))
            }
        }
    }

    /// The persistence tail of `Registry::put` under `--snapshot-dir`:
    /// warm every cache, then write the TDSNAP1 file.
    fn persist(&mut self, dir: &Path, tenant: &str) -> Result<(), String> {
        let tr = self.tr;
        let entry = self.entry(tenant)?;
        let snapshot = &entry.snapshot;
        tr.span("registry.put.warm_caches", || snapshot.warm_caches());
        let meta = [
            ("tenant".to_string(), tenant.to_string()),
            ("name".to_string(), SCHEMA_NAME.to_string()),
            ("version".to_string(), entry.version.to_string()),
            ("text".to_string(), entry.text.clone()),
        ];
        let path = dir.join(format!("{tenant}__{SCHEMA_NAME}.tds"));
        tr.span("registry.put.snapshot_write", || {
            write_snapshot_file(snapshot, &meta, &path)
        })
        .map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        self.count("registry.snapshot_bytes", bytes);
        Ok(())
    }

    /// `Registry::put`, step by step with the same public calls.
    fn put(&mut self, tenant: &str, text: &str) -> Answer {
        let tr = self.tr;
        let (version, summary, carried) = tr.span("registry.put", || {
            let schema = tr.span("registry.put.parse", || {
                parse_schema(text).map(Schema::into_snapshot)
            });
            let snapshot = schema.map_err(|e| e.to_string())?;
            let previous = self.entries.get(tenant).cloned();
            let mut summary = "first registration".to_string();
            let mut carried = 0;
            if let Some(prev) = &previous {
                let d = tr.span("registry.put.diff", || {
                    diff_schemas(prev.snapshot.schema(), snapshot.schema())
                });
                carried = tr
                    .span("registry.put.carry", || {
                        snapshot
                            .schema()
                            .carry_warm_from(prev.snapshot.schema(), &d)
                    })
                    .total();
                summary = d.summary();
            }
            let version = previous.map(|e| e.version + 1).unwrap_or(1);
            self.entries.insert(
                tenant.to_string(),
                Arc::new(SchemaEntry {
                    version,
                    snapshot: snapshot.clone(),
                    text: text.to_string(),
                }),
            );
            if let Some(dir) = self.snapshot_dir.clone() {
                self.persist(&dir, tenant)?;
            }
            Ok::<_, String>((version, summary, carried))
        })?;
        self.count("registry.carried_entries", carried as u64);
        let body = tr.span("api.render", || {
            format!(
                "{{\"tenant\": {}, \"name\": {}, \"version\": {version}, \"diff\": {}, \"carried\": {carried}}}\n",
                quote(tenant),
                quote(SCHEMA_NAME),
                quote(&summary),
            )
        });
        Ok((if version == 1 { 201 } else { 200 }, body))
    }
}

fn parse_body(doc: &Json) -> Result<Body, String> {
    let obj = doc.as_obj().ok_or("body is not an object")?;
    let s = |k: &str| obj.get(k).and_then(Json::as_str).map(str::to_string);
    let attrs = obj.get("attrs").and_then(Json::as_arr).map(|a| {
        a.iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect::<Vec<_>>()
    });
    Ok(Body {
        tenant: s("tenant").ok_or("body without a tenant")?,
        view: s("type").map(|ty| View {
            ty,
            attrs: attrs.unwrap_or_default(),
        }),
        method: s("method"),
        requests: s("requests"),
    })
}

/// One replayed request.
pub struct Record {
    pub kind: Kind,
    pub phase: Phase,
    /// Start (tracer clock) and duration of `Api::handle` on the same
    /// request (reference replay only).
    pub handle: Option<(Duration, Duration)>,
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub records: Vec<Record>,
    pub counts: Counts,
    /// Requests whose mirror answer differed from `Api::handle`'s.
    pub drift: Vec<String>,
}

/// The replay order: set-up, the measured stream in due order, then the
/// probe.
fn stream(wl: &Workload) -> impl Iterator<Item = (Phase, &Req)> {
    let setup = wl.setup.iter().map(|r| (Phase::Setup, r));
    let measured = wl
        .measured
        .iter()
        .enumerate()
        .map(|(i, r)| (Phase::Measured(i), r));
    let probe = wl.probe.iter().map(|r| (Phase::Probe, r));
    setup.chain(measured).chain(probe)
}

/// Replays the workload. With `reference`, every request also runs
/// through a fresh `Api::handle` (timed whole) and the answers are
/// compared.
pub fn replay(wl: &Workload, work: &Path, tag: &str, reference: bool) -> Result<Replay, String> {
    let make_dir = |name: &str| -> Result<PathBuf, String> {
        let dir = work.join(format!("{name}-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(dir)
    };
    let fresh_dir = |name: &str| wl.snapshot_dir.then(|| make_dir(name)).transpose();
    let probe_dir = make_dir("replay-probe")?;
    let api_dir = fresh_dir("replay-api")?;
    let api = match &api_dir {
        Some(dir) => Api::with_registry(Registry::with_snapshot_dir(dir)?.0),
        None => Api::new(),
    };
    let tracer = Tracer::new();
    let mut mirror = Mirror {
        tr: &tracer,
        entries: BTreeMap::new(),
        snapshot_dir: fresh_dir("replay-mirror")?,
        probe_dir: probe_dir.clone(),
        counts: Counts::new(),
    };
    let mut records = Vec::new();
    let mut drift = Vec::new();
    for (phase, req) in stream(wl) {
        let path = wl.path(req);
        let body = wl.body(req);
        let handle = reference.then(|| {
            let at = tracer.now();
            let started = Instant::now();
            let r = api.handle(req.kind.method(), &path, "", body.as_bytes());
            (at, started.elapsed(), r)
        });
        let answer = tracer.span(req.kind.name(), || mirror.handle(wl, req, phase));
        let (status, out) =
            answer.map_err(|e| format!("replay of {} {path}: {e}", req.kind.method()))?;
        if let Some((_, _, r)) = &handle {
            if r.status != status || r.body != out {
                drift.push(format!("{} {path} ({phase:?})", req.kind.method()));
            }
        }
        records.push(Record {
            kind: req.kind,
            phase,
            handle: handle.map(|(at, d, _)| (at, d)),
        });
    }
    let counts = mirror.counts;
    for dir in [Some(probe_dir)]
        .into_iter()
        .chain([mirror.snapshot_dir, api_dir])
        .flatten()
    {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Replay {
        spans: tracer.spans.into_inner(),
        records,
        counts,
        drift,
    })
}

/// The spans of segment `pid` as Chrome trace events: the mirror on
/// thread 1, the whole `Api::handle` of each request on thread 2.
pub fn chrome_events(r: &Replay, pid: usize, events: &mut Vec<String>) {
    for s in &r.spans {
        events.push(format!(
            "{{\"name\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": 1}}",
            quote(s.name),
            s.start.as_secs_f64() * 1e6,
            s.dur().as_secs_f64() * 1e6
        ));
    }
    for rec in &r.records {
        if let Some((at, h)) = rec.handle {
            events.push(format!(
                "{{\"name\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": 2}}",
                quote(&format!("api.handle.{}", rec.kind.name())),
                at.as_secs_f64() * 1e6,
                h.as_secs_f64() * 1e6
            ));
        }
    }
}
