//! Seeded workload generation: schemas, schema version streams, request
//! bodies and the open-loop arrival schedule. Everything here is a pure
//! function of `(workload, seed, segment)`, and [`digests`] fingerprints
//! it so two commits can be shown to have run identical inputs.

use std::collections::BTreeSet;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use td_model::text::schema_to_text;
use td_model::{AttrId, Schema, TypeId};
use td_server::json::{quote, str_array};
use td_workload::{apply_random_mutations, batch_requests, call_heavy_schema, random_projection};

/// Every tenant registers its schema under this name.
pub const SCHEMA_NAME: &str = "s";
/// Tenants per workload; each gets its own sender thread.
pub const TENANTS: usize = 2;
/// Views per batch request on `derive`.
const BATCH_VIEWS: usize = 3;
/// Projects per schema version on `schema-churn`.
const PROJECTS_PER_VERSION: usize = 4;
/// Seed of every `schema-churn` mutation stream (xor the tenant index).
const MUTATION_SEED: u64 = 0x5EED_C4A1;

/// The server endpoints a workload exercises. `name` matches the
/// server's own endpoint key (`/metrics`, flight recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Project,
    Batch,
    Applicable,
    Lint,
    Explain,
    Analyze,
    SchemasGet,
    SchemasPut,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Project,
        Kind::Batch,
        Kind::Applicable,
        Kind::Lint,
        Kind::Explain,
        Kind::Analyze,
        Kind::SchemasGet,
        Kind::SchemasPut,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Project => "project",
            Kind::Batch => "batch",
            Kind::Applicable => "applicable",
            Kind::Lint => "lint",
            Kind::Explain => "explain",
            Kind::Analyze => "analyze",
            Kind::SchemasGet => "schemas_get",
            Kind::SchemasPut => "schemas_put",
        }
    }

    pub fn method(self) -> &'static str {
        match self {
            Kind::SchemasGet => "GET",
            Kind::SchemasPut => "PUT",
            _ => "POST",
        }
    }
}

/// A projection view by name, as a request body carries it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct View {
    pub ty: String,
    pub attrs: Vec<String>,
}

impl View {
    fn of(schema: &Schema, source: TypeId, attrs: &BTreeSet<AttrId>) -> View {
        View {
            ty: schema.type_name(source).to_string(),
            attrs: attrs
                .iter()
                .map(|&a| schema.attr_name(a).to_string())
                .collect(),
        }
    }

    fn json(&self) -> String {
        format!(
            "\"type\": {}, \"attrs\": {}",
            quote(&self.ty),
            str_array(&self.attrs)
        )
    }
}

/// One request: what to send, and what the correctness gate needs to
/// know about it.
#[derive(Debug, Clone)]
pub struct Req {
    pub tenant: usize,
    pub kind: Kind,
    /// Index into the tenant's version stream of the schema this request
    /// runs against (for a PUT: the version it registers).
    pub version: usize,
    /// Offset from the start of the measured phase at which the request
    /// is due (zero outside the measured phase).
    pub due: Duration,
    /// JSON body; empty for GET and for PUT (whose body is the version's
    /// schema text).
    pub body: String,
    pub view: Option<View>,
    /// The method label an `explain` request asks about.
    pub method_label: Option<String>,
}

pub struct Tenant {
    pub name: String,
    /// Schema texts; index 0 is the base registered during set-up,
    /// index k is the base plus k seeded additive mutations.
    pub versions: Vec<String>,
}

pub struct Workload {
    pub name: &'static str,
    /// Mean arrival rate of the Poisson schedule, requests per second.
    pub rate: f64,
    /// Whether the server runs with a fresh `--snapshot-dir`.
    pub snapshot_dir: bool,
    pub tenants: Vec<Tenant>,
    /// Set-up: every tenant's base schema registration, then one warm
    /// request per (tenant, source type).
    pub setup: Vec<Req>,
    /// The measured request stream, in due order.
    pub measured: Vec<Req>,
    /// Traced replay only: one request of every endpoint per tenant on
    /// its last version, so every layer has samples on every workload.
    pub probe: Vec<Req>,
}

impl Workload {
    pub fn path(&self, req: &Req) -> String {
        match req.kind {
            Kind::SchemasGet | Kind::SchemasPut => format!(
                "/v1/tenants/{}/schemas/{SCHEMA_NAME}",
                self.tenants[req.tenant].name
            ),
            kind => format!("/v1/{}", kind.name()),
        }
    }

    pub fn body<'a>(&'a self, req: &'a Req) -> &'a str {
        match req.kind {
            Kind::SchemasPut => &self.tenants[req.tenant].versions[req.version],
            _ => &req.body,
        }
    }
}

/// FNV-1a fingerprints of the schema texts, the request bodies and the
/// arrival schedules of `workloads`.
pub fn digests(workloads: &[Workload]) -> [(&'static str, u64); 3] {
    let mut schemas = Fnv::new();
    let mut bodies = Fnv::new();
    let mut schedule = Fnv::new();
    for wl in workloads {
        for t in &wl.tenants {
            schemas.str(&t.name);
            for v in &t.versions {
                schemas.str(v);
            }
        }
        for r in wl.setup.iter().chain(&wl.measured).chain(&wl.probe) {
            bodies.str(&wl.path(r));
            bodies.str(wl.body(r));
            schedule.u64(r.tenant as u64);
            schedule.u64(r.due.as_nanos() as u64);
        }
    }
    [
        ("schemas", schemas.0),
        ("bodies", bodies.0),
        ("schedule", schedule.0),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

pub const WORKLOADS: [&str; 3] = ["derive", "read-mix", "schema-churn"];

/// Builds segment `segment` of workload `name` for `seed`, with a
/// measured phase of `seconds`. Every segment draws its own schemas,
/// views and schedule, so one run averages over several independent
/// inputs.
pub fn generate(name: &str, seed: u64, segment: u64, seconds: f64) -> Option<Workload> {
    let seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(segment.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    // At 25 rps `derive` puts the median request on the edge between
    // answers that ran alone and answers that shared the two cores with
    // a batch, and the generator fell behind (late p99 > 5 ms); 40 rps
    // did the same to the `schema-churn` tail. Both rates are lowered
    // until runs repeat (NOTES.md, "Measured spread").
    let (rate, shape) = match name {
        "derive" => (15.0, (32, 60)),
        "read-mix" => (100.0, (16, 40)),
        "schema-churn" => (25.0, (16, 40)),
        _ => return None,
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E57_BE4C);
    let arrivals = poisson(&mut rng, rate, seconds);
    let bases: Vec<Schema> = (0..TENANTS)
        .map(|t| call_heavy_schema(shape.0, shape.1, 3, 8, seed.wrapping_add(t as u64)))
        .collect();
    let mut gen = Gen {
        rng,
        seed,
        tenants: bases
            .iter()
            .enumerate()
            .map(|(t, s)| Tenant {
                name: format!("t{t}"),
                versions: vec![schema_to_text(s)],
            })
            .collect(),
    };
    let mut measured = Vec::with_capacity(arrivals.len());
    let workload = WORKLOADS.iter().copied().find(|w| *w == name)?;
    match workload {
        "derive" => {
            // Exactly one batch in every five requests, at a seeded
            // position, so the mix (and with it the cost per request)
            // is the same on every seed.
            let mut batch_at = 0;
            for (i, due) in arrivals.into_iter().enumerate() {
                if i % 5 == 0 {
                    batch_at = gen.rng.gen_range(0..5);
                }
                let t = gen.rng.gen_range(0..TENANTS);
                let kind = if i % 5 == batch_at {
                    Kind::Batch
                } else {
                    Kind::Project
                };
                measured.push(gen.request(&bases[t], t, 0, kind, due));
            }
        }
        "read-mix" => {
            // Every five requests are a seeded permutation of the five
            // endpoints: equal shares on every seed.
            let mut mix = [
                Kind::Applicable,
                Kind::Lint,
                Kind::Explain,
                Kind::Analyze,
                Kind::SchemasGet,
            ];
            for (i, due) in arrivals.into_iter().enumerate() {
                if i % mix.len() == 0 {
                    for j in (1..mix.len()).rev() {
                        mix.swap(j, gen.rng.gen_range(0..=j));
                    }
                }
                let t = gen.rng.gen_range(0..TENANTS);
                measured.push(gen.request(&bases[t], t, 0, mix[i % mix.len()], due));
            }
        }
        _ => {
            // Per tenant: PUT the next version, then PROJECTS_PER_VERSION
            // projects on it, repeated. Version k is a fresh clone of the
            // base plus k seeded mutation steps: the mutation stream names
            // its entities by step number, so replaying it onto an
            // already-mutated schema would collide. The mutations only
            // add, so views drawn from the base are valid on every
            // version, and every version answers the same kind of view.
            // The stream's seed is fixed per tenant: how early a stream
            // adds types sets the size of the I2 dispatch replay, and
            // seeding it per run made segment latency vary threefold.
            let mut sent = [0usize; TENANTS];
            for due in arrivals {
                let t = gen.rng.gen_range(0..TENANTS);
                let slot = sent[t] % (PROJECTS_PER_VERSION + 1);
                sent[t] += 1;
                if slot == 0 {
                    let version = gen.tenants[t].versions.len();
                    let mut next = bases[t].clone();
                    apply_random_mutations(&mut next, version, MUTATION_SEED ^ t as u64);
                    gen.tenants[t].versions.push(schema_to_text(&next));
                    measured.push(gen.request(&next, t, version, Kind::SchemasPut, due));
                } else {
                    let version = gen.tenants[t].versions.len() - 1;
                    measured.push(gen.request(&bases[t], t, version, Kind::Project, due));
                }
            }
        }
    }
    // Set-up: register the bases, then one request per (tenant, source
    // type) on them, using the workload's dominant compute endpoint.
    let warm_kind = if workload == "read-mix" {
        Kind::Applicable
    } else {
        Kind::Project
    };
    let mut setup: Vec<Req> = (0..TENANTS)
        .map(|t| gen.plain(t, 0, Kind::SchemasPut, Duration::ZERO, None, String::new()))
        .collect();
    for (t, base) in bases.iter().enumerate() {
        let sources: BTreeSet<&str> = measured
            .iter()
            .filter(|r| r.tenant == t)
            .filter_map(|r| r.view.as_ref())
            .map(|v| v.ty.as_str())
            .filter(|ty| base.type_id(ty).is_ok())
            .collect();
        for ty in sources {
            let source = base.type_id(ty).expect("filtered above");
            let attrs = random_projection(base, source, 0.5, seed ^ 0x3A43);
            let view = View::of(base, source, &attrs);
            setup.push(gen.request_with_view(t, 0, warm_kind, Duration::ZERO, view));
        }
    }
    // Probe: every endpoint once per tenant, on the tenant's last version.
    let mut probe = Vec::new();
    for (t, base) in bases.iter().enumerate() {
        let version = gen.tenants[t].versions.len() - 1;
        for kind in Kind::ALL {
            probe.push(gen.request(base, t, version, kind, Duration::ZERO));
        }
    }
    Some(Workload {
        name: workload,
        rate,
        snapshot_dir: workload == "schema-churn",
        tenants: gen.tenants,
        setup,
        measured,
        probe,
    })
}

/// Arrival offsets of a Poisson process of `rate` per second over
/// `seconds`.
fn poisson(rng: &mut SmallRng, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0f64 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

struct Gen {
    rng: SmallRng,
    seed: u64,
    tenants: Vec<Tenant>,
}

impl Gen {
    /// A request of `kind` on `schema` (the tenant's `version`), with a
    /// fresh seeded view where the endpoint takes one.
    fn request(
        &mut self,
        schema: &Schema,
        tenant: usize,
        version: usize,
        kind: Kind,
        due: Duration,
    ) -> Req {
        match kind {
            Kind::SchemasGet | Kind::SchemasPut => {
                self.plain(tenant, version, kind, due, None, String::new())
            }
            Kind::Batch => {
                let lines: String = self
                    .views(schema, BATCH_VIEWS)
                    .iter()
                    .map(|v| format!("{}: {}\n", v.ty, v.attrs.join(", ")))
                    .collect();
                let body = format!("{{{}, \"requests\": {}}}", self.head(tenant), quote(&lines));
                self.plain(tenant, version, kind, due, None, body)
            }
            Kind::Explain => {
                let labels: Vec<&str> = schema
                    .method_ids()
                    .map(|m| schema.method_label(m))
                    .collect();
                let label = labels[self.rng.gen_range(0..labels.len())].to_string();
                let view = self.view(schema);
                let body = format!(
                    "{{{}, {}, \"method\": {}}}",
                    self.head(tenant),
                    view.json(),
                    quote(&label)
                );
                let mut req = self.plain(tenant, version, kind, due, Some(view), body);
                req.method_label = Some(label);
                req
            }
            _ => {
                let view = self.view(schema);
                self.request_with_view(tenant, version, kind, due, view)
            }
        }
    }

    fn request_with_view(
        &mut self,
        tenant: usize,
        version: usize,
        kind: Kind,
        due: Duration,
        view: View,
    ) -> Req {
        let body = format!("{{{}, {}}}", self.head(tenant), view.json());
        self.plain(tenant, version, kind, due, Some(view), body)
    }

    fn plain(
        &self,
        tenant: usize,
        version: usize,
        kind: Kind,
        due: Duration,
        view: Option<View>,
        body: String,
    ) -> Req {
        Req {
            tenant,
            kind,
            version,
            due,
            body,
            view,
            method_label: None,
        }
    }

    fn head(&self, tenant: usize) -> String {
        format!(
            "\"tenant\": {}, \"schema\": {}",
            quote(&self.tenants[tenant].name),
            quote(SCHEMA_NAME)
        )
    }

    fn view(&mut self, schema: &Schema) -> View {
        self.views(schema, 1)
            .pop()
            .expect("the schema has a type with attributes")
    }

    /// `n` seeded views from `batch_requests` (keep fraction 0.5), which
    /// biases sources toward deep types.
    fn views(&mut self, schema: &Schema, n: usize) -> Vec<View> {
        let seed = self.rng.gen::<u64>() ^ self.seed;
        batch_requests(schema, n, 0.5, seed)
            .iter()
            .map(|(source, attrs)| View::of(schema, *source, attrs))
            .collect()
    }
}
