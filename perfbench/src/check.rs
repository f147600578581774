//! The correctness gate over the loopback answers. A failure here fails
//! the run; refused and timed-out requests are counted separately as
//! errors.

use std::collections::{BTreeMap, BTreeSet};

use td_core::{applicability_fixpoint, project, ProjectionOptions};
use td_model::{AttrId, Schema, TypeId};
use td_server::derivation_json;
use td_server::json::{quote, Json};

use crate::inputs::{Kind, Req, View, Workload, SCHEMA_NAME};
use crate::loopback::Outcome;

/// Per segment, at most this many project answers are re-derived in-process and
/// compared byte for byte.
const BYTE_SAMPLES: usize = 4;

#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub ok: usize,
    /// 429/503 answers: admission refused the request.
    pub refused: usize,
    /// No complete answer: timeout, reset or malformed response.
    pub broken: usize,
    /// Any other non-2xx status. The inputs are valid, so these are also
    /// correctness failures.
    pub http_errors: usize,
}

impl Tally {
    pub fn failed(&self) -> usize {
        self.refused + self.broken + self.http_errors
    }
}

#[derive(Default)]
pub struct Gate {
    pub tally: Tally,
    pub failures: Vec<String>,
    pub oracle_checks: usize,
    pub byte_checks: usize,
}

/// `doc[key]` as a set of strings, when it is an array of strings.
pub fn label_set(doc: &Json, key: &str) -> Option<BTreeSet<String>> {
    doc.as_obj()?
        .get(key)?
        .as_arr()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect()
}

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.as_obj()?.get(key)
}

/// Applicable and not-applicable method labels.
type Verdicts = (BTreeSet<String>, BTreeSet<String>);

/// Parsed schemas per (tenant, version), built on first use.
struct Schemas<'a> {
    wl: &'a Workload,
    parsed: BTreeMap<(usize, usize), Schema>,
    oracle: BTreeMap<(usize, usize, View), Verdicts>,
}

impl<'a> Schemas<'a> {
    fn get(&mut self, tenant: usize, version: usize) -> &Schema {
        let wl = self.wl;
        self.parsed.entry((tenant, version)).or_insert_with(|| {
            td_model::parse_schema(&wl.tenants[tenant].versions[version])
                .expect("generated schema text parses")
        })
    }

    /// The independent fixpoint oracle's (applicable, not applicable)
    /// label sets for a view.
    fn oracle(&mut self, req: &Req, view: &View) -> Result<Verdicts, String> {
        let key = (req.tenant, req.version, view.clone());
        if let Some(hit) = self.oracle.get(&key) {
            return Ok(hit.clone());
        }
        let schema = self.get(req.tenant, req.version);
        let (source, attrs) = resolve(schema, view)?;
        let alive = applicability_fixpoint(schema, source, &attrs).map_err(|e| e.to_string())?;
        let mut yes = BTreeSet::new();
        let mut no = BTreeSet::new();
        for m in schema.methods_applicable_to_type(source) {
            let label = schema.method_label(m).to_string();
            if alive.contains(&m) {
                yes.insert(label);
            } else {
                no.insert(label);
            }
        }
        self.oracle.insert(key, (yes.clone(), no.clone()));
        Ok((yes, no))
    }
}

pub fn resolve(schema: &Schema, view: &View) -> Result<(TypeId, BTreeSet<AttrId>), String> {
    let source = schema.type_id(&view.ty).map_err(|e| e.to_string())?;
    let attrs = view
        .attrs
        .iter()
        .map(|a| schema.attr_id(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok((source, attrs))
}

/// Checks every measured answer of one segment into `gate`.
pub fn check(wl: &Workload, outcomes: &[Outcome], gate: &mut Gate) {
    let mut schemas = Schemas {
        wl,
        parsed: BTreeMap::new(),
        oracle: BTreeMap::new(),
    };
    let projects = wl
        .measured
        .iter()
        .filter(|r| r.kind == Kind::Project)
        .count();
    let stride = projects.div_ceil(BYTE_SAMPLES).max(1);
    let mut project_seen = 0;
    for (i, (req, out)) in wl.measured.iter().zip(outcomes).enumerate() {
        gate.tally.attempted += 1;
        let status = match out.status {
            None => {
                gate.tally.broken += 1;
                if gate.tally.broken == 1 {
                    eprintln!(
                        "request {i} ({}) got no answer: {}",
                        req.kind.name(),
                        out.error.as_deref().unwrap_or("?")
                    );
                }
                continue;
            }
            Some(s) => s,
        };
        if status == 429 || status == 503 {
            gate.tally.refused += 1;
            continue;
        }
        if !(200..300).contains(&status) {
            gate.tally.http_errors += 1;
            gate.failures.push(format!(
                "request {i} ({}): status {status}: {}",
                req.kind.name(),
                out.body.trim()
            ));
            continue;
        }
        gate.tally.ok += 1;
        let sample = req.kind == Kind::Project && {
            project_seen += 1;
            (project_seen - 1) % stride == 0
        };
        if let Err(e) = check_answer(&mut schemas, req, &out.body, sample, gate) {
            gate.failures
                .push(format!("request {i} ({}): {e}", req.kind.name()));
        }
    }
}

fn check_answer(
    schemas: &mut Schemas<'_>,
    req: &Req,
    body: &str,
    sample: bool,
    gate: &mut Gate,
) -> Result<(), String> {
    if req.kind == Kind::SchemasGet {
        // Compared as bytes: `Json::parse` of a schema-sized string is
        // quadratic (NOTES.md, findings).
        let wl = schemas.wl;
        let expected = format!(
            "{{\"tenant\": {}, \"name\": {}, \"version\": {}, \"schema\": {}}}\n",
            quote(&wl.tenants[req.tenant].name),
            quote(SCHEMA_NAME),
            req.version + 1,
            quote(&wl.tenants[req.tenant].versions[req.version])
        );
        if body != expected {
            return Err("GET did not return the registered schema".into());
        }
        return Ok(());
    }
    let doc = Json::parse(body).map_err(|e| format!("answer is not JSON: {e}"))?;
    let num = |key: &str| field(&doc, key).and_then(Json::as_f64);
    match req.kind {
        Kind::Project | Kind::Applicable => {
            if req.kind == Kind::Project && field(&doc, "invariants_ok") != Some(&Json::Bool(true))
            {
                return Err("invariants_ok is not true".into());
            }
            let view = req.view.as_ref().expect("project requests carry a view");
            let (yes, no) = schemas.oracle(req, view)?;
            gate.oracle_checks += 1;
            if label_set(&doc, "applicable").as_ref() != Some(&yes)
                || label_set(&doc, "not_applicable").as_ref() != Some(&no)
            {
                return Err("applicable/not_applicable differ from the fixpoint oracle".into());
            }
            if sample {
                let schema = schemas.get(req.tenant, req.version);
                let (source, attrs) = resolve(schema, view)?;
                let mut fork = schema.snapshot().fork();
                let d = project(&mut fork, source, &attrs, &ProjectionOptions::default())
                    .map_err(|e| e.to_string())?;
                gate.byte_checks += 1;
                if derivation_json(&fork, &d) != body {
                    return Err("answer differs from an in-process derivation byte for byte".into());
                }
            }
        }
        Kind::Batch => {
            if num("errors") != Some(0.0)
                || num("invariant_violations") != Some(0.0)
                || num("ok") != num("requests")
            {
                return Err(format!("batch reported failures: {}", body.trim()));
            }
        }
        Kind::Explain => {
            if field(&doc, "method").and_then(Json::as_str) != req.method_label.as_deref()
                || field(&doc, "explanation").and_then(Json::as_str).is_none()
            {
                return Err("explain answer does not explain the requested method".into());
            }
        }
        Kind::SchemasGet => unreachable!("compared as bytes above"),
        Kind::Lint | Kind::Analyze => {
            if doc.as_obj().is_none() {
                return Err("answer is not a JSON object".into());
            }
        }
        Kind::SchemasPut => {
            if num("version") != Some((req.version + 1) as f64) {
                return Err(format!("PUT registered the wrong version: {}", body.trim()));
            }
        }
    }
    Ok(())
}
