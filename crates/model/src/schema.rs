//! The [`Schema`]: single owner of types, attributes, generic functions and
//! methods.
//!
//! Everything the paper's algorithms touch lives here, addressed by dense
//! ids. The struct is `Clone` — the invariant checkers compare a
//! derivation's result against the schema as it was before (the frozen
//! parent of an unmutated fork, or else a clone).

use crate::attrs::{AttrDef, ValueType};
use crate::cache::DispatchCache;
use crate::delta::SchemaDelta;
use crate::error::{ModelError, Result};
use crate::hierarchy::{TypeNode, TypeOrigin};
use crate::ids::{AttrId, GfId, MethodId, NameId, TypeId};
use crate::intern::NameTable;
use crate::methods::{GenericFunction, Method, MethodKind, Specializer};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// An object-oriented schema per §2 of the paper: a DAG of types with
/// precedence-ordered multiple inheritance, globally unique named
/// attributes, and generic functions implemented by multi-methods.
///
/// Every name in the runtime model is interned: entities carry [`NameId`]s
/// into the schema's [`NameTable`] arena, and the name→entity lookup maps
/// are keyed by `NameId`. String-typed entry points ([`Schema::type_id`]
/// and friends) resolve through the arena first.
#[derive(Clone, Default)]
pub struct Schema {
    pub(crate) names: NameTable,
    pub(crate) types: Vec<TypeNode>,
    pub(crate) type_names: HashMap<NameId, TypeId>,
    pub(crate) attrs: Vec<AttrDef>,
    pub(crate) attr_names: HashMap<NameId, AttrId>,
    pub(crate) gfs: Vec<GenericFunction>,
    pub(crate) gf_names: HashMap<NameId, GfId>,
    pub(crate) methods: Vec<Method>,
    /// The dispatch acceleration layer (see [`crate::cache`]). Every
    /// mutator below bumps its generation via [`Schema::note_mutation`].
    pub(crate) cache: DispatchCache,
    /// The frozen snapshot this schema was forked from, kept only while
    /// the fork is unmutated (see [`Schema::fork_parent`]). Not part of
    /// the schema's content: never serialized and left out of `Debug`.
    pub(crate) parent: Option<Arc<Schema>>,
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema")
            .field("names", &self.names)
            .field("types", &self.types)
            .field("type_names", &self.type_names)
            .field("attrs", &self.attrs)
            .field("attr_names", &self.attr_names)
            .field("gfs", &self.gfs)
            .field("gf_names", &self.gf_names)
            .field("methods", &self.methods)
            .field("cache", &self.cache)
            .finish()
    }
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Records that the schema changed: bumps the cache generation and
    /// files a structured delta describing *what* changed, so the next
    /// cached read can evict only the entries whose dependency closure the
    /// delta reaches (see [`crate::cache`] and [`crate::delta`]). Called
    /// from every `&mut self` path that can alter dispatch-relevant state;
    /// conservative over-description ([`SchemaDelta::Full`]) is fine,
    /// missing a mutation is not.
    ///
    /// A mutated fork also forgets its parent: it no longer equals it, and
    /// it must not keep the parent alive.
    #[inline]
    pub(crate) fn note_mutation(&mut self, delta: SchemaDelta) {
        self.parent = None;
        self.cache.note(delta);
    }

    /// The frozen snapshot this schema was [forked](SchemaSnapshot::fork)
    /// from, if the schema has not been changed since the fork — so the
    /// parent equals it in every type, attribute, generic function and
    /// method, and can stand in for a pre-mutation clone. `None` for a
    /// schema that is not a fork, and for a fork after its first mutation
    /// (or its first interned name).
    pub fn fork_parent(&self) -> Option<Arc<Schema>> {
        self.parent.clone()
    }

    // ---------------------------------------------------------------- names

    /// Interns a string into the schema's name arena, returning its id.
    /// Interning alone never invalidates caches — nothing dispatch-relevant
    /// changes until the name is attached to an entity.
    pub fn intern(&mut self, s: &str) -> NameId {
        self.parent = None;
        self.names.intern(s)
    }

    /// The string for an interned name id.
    #[inline]
    pub fn name(&self, n: NameId) -> &str {
        self.names.resolve(n)
    }

    /// Finds the id of an already-interned name without interning it.
    pub fn lookup_name(&self, s: &str) -> Option<NameId> {
        self.names.lookup(s)
    }

    /// The name-interning arena (read access for stats and serialization).
    #[inline]
    pub fn name_table(&self) -> &NameTable {
        &self.names
    }

    // ---------------------------------------------------------------- types

    /// Adds an original type with the given direct supertypes; the slice
    /// order defines inheritance precedence (first = highest, numbered 1).
    pub fn add_type(&mut self, name: impl Into<String>, supers: &[TypeId]) -> Result<TypeId> {
        self.add_type_with_origin(name, supers, TypeOrigin::Original)
    }

    /// Adds a surrogate type (no supertype edges yet — `FactorState` wires
    /// them explicitly).
    pub fn add_surrogate(&mut self, name: impl Into<String>, source: TypeId) -> Result<TypeId> {
        self.check_type(source)?;
        self.add_type_with_origin(name, &[], TypeOrigin::Surrogate { source })
    }

    fn add_type_with_origin(
        &mut self,
        name: impl Into<String>,
        supers: &[TypeId],
        origin: TypeOrigin,
    ) -> Result<TypeId> {
        let name = name.into();
        let name_id = self.names.intern(&name);
        if self.type_names.contains_key(&name_id) {
            return Err(ModelError::DuplicateTypeName(name));
        }
        for &s in supers {
            self.check_type(s)?;
        }
        let id = TypeId::from_index(self.types.len());
        self.note_mutation(SchemaDelta::TypeAdded(id));
        self.types.push(TypeNode {
            name: name_id,
            local_attrs: Vec::new(),
            supers: Vec::new(),
            origin,
            dead: false,
        });
        self.type_names.insert(name_id, id);
        for (i, &s) in supers.iter().enumerate() {
            self.add_super_with_prec(id, s, i as i32 + 1)?;
        }
        Ok(id)
    }

    /// Re-marks an existing type as a surrogate of `source` (used by the
    /// text parser, where `surrogate of` clauses may reference types
    /// declared later in the file).
    pub fn mark_surrogate(&mut self, t: TypeId, source: TypeId) -> Result<()> {
        self.check_type(t)?;
        self.check_type(source)?;
        if t == source {
            return Err(ModelError::Invalid(format!(
                "type {t} cannot be its own surrogate"
            )));
        }
        self.type_node_mut(t).origin = TypeOrigin::Surrogate { source };
        Ok(())
    }

    /// Immutable access to a type node.
    ///
    /// # Panics
    /// Panics on an out-of-range id (ids are only minted by this schema, so
    /// this indicates a cross-schema mixup).
    #[inline]
    pub fn type_(&self, t: TypeId) -> &TypeNode {
        &self.types[t.index()]
    }

    /// Looks a type up by name.
    pub fn type_id(&self, name: &str) -> Result<TypeId> {
        self.names
            .lookup(name)
            .and_then(|n| self.type_names.get(&n).copied())
            .ok_or_else(|| ModelError::UnknownTypeName(name.to_string()))
    }

    /// The name of a type.
    #[inline]
    pub fn type_name(&self, t: TypeId) -> &str {
        self.names.resolve(self.type_(t).name)
    }

    /// Number of allocated type slots (including retired ones).
    #[inline]
    pub fn n_types(&self) -> usize {
        self.types.len()
    }

    /// Iterates ids of live (non-retired) types.
    pub fn live_type_ids(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.types
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, _)| TypeId::from_index(i))
    }

    /// True if the id refers to a live type.
    pub fn is_live(&self, t: TypeId) -> bool {
        t.index() < self.types.len() && !self.types[t.index()].dead
    }

    pub(crate) fn check_type(&self, t: TypeId) -> Result<()> {
        if self.is_live(t) {
            Ok(())
        } else {
            Err(ModelError::BadTypeId(t))
        }
    }

    pub(crate) fn unregister_type_name(&mut self, t: TypeId) {
        self.note_mutation(SchemaDelta::TypeTouched(t));
        let name = self.types[t.index()].name;
        self.type_names.remove(&name);
    }

    // ---------------------------------------------------------- attributes

    /// Defines a new attribute local to `owner`. Names are globally unique.
    pub fn add_attr(
        &mut self,
        name: impl Into<String>,
        ty: ValueType,
        owner: TypeId,
    ) -> Result<AttrId> {
        let name = name.into();
        self.check_type(owner)?;
        let name_id = self.names.intern(&name);
        if self.attr_names.contains_key(&name_id) {
            return Err(ModelError::DuplicateAttrName(name));
        }
        if let ValueType::Object(t) = ty {
            self.check_type(t)?;
        }
        let id = AttrId::from_index(self.attrs.len());
        self.note_mutation(SchemaDelta::AttrAdded(id));
        self.attrs.push(AttrDef {
            name: name_id,
            ty,
            owner,
        });
        self.attr_names.insert(name_id, id);
        // Direct push, not `type_node_mut`: adding an attribute changes no
        // supertype edge, so it must not dirty the owner's CPL/dispatch
        // entries the way a touched type node would.
        self.types[owner.index()].local_attrs.push(id);
        Ok(id)
    }

    /// Immutable access to an attribute definition.
    #[inline]
    pub fn attr(&self, a: AttrId) -> &AttrDef {
        &self.attrs[a.index()]
    }

    pub(crate) fn attr_mut(&mut self, a: AttrId) -> &mut AttrDef {
        self.note_mutation(SchemaDelta::AttrTouched(a));
        &mut self.attrs[a.index()]
    }

    /// Looks an attribute up by name.
    pub fn attr_id(&self, name: &str) -> Result<AttrId> {
        self.names
            .lookup(name)
            .and_then(|n| self.attr_names.get(&n).copied())
            .ok_or_else(|| ModelError::UnknownAttrName(name.to_string()))
    }

    /// The name of an attribute.
    #[inline]
    pub fn attr_name(&self, a: AttrId) -> &str {
        self.names.resolve(self.attr(a).name)
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Iterates all attribute ids.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> {
        (0..self.attrs.len()).map(AttrId::from_index)
    }

    pub(crate) fn check_attr(&self, a: AttrId) -> Result<()> {
        if a.index() < self.attrs.len() {
            Ok(())
        } else {
            Err(ModelError::BadAttrId(a))
        }
    }

    // ---------------------------------------------------- generic functions

    /// Declares a generic function with the given arity and result contract.
    pub fn add_gf(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        result: Option<ValueType>,
    ) -> Result<GfId> {
        let name = name.into();
        let name_id = self.names.intern(&name);
        if self.gf_names.contains_key(&name_id) {
            return Err(ModelError::DuplicateGfName(name));
        }
        let id = GfId::from_index(self.gfs.len());
        self.note_mutation(SchemaDelta::GfAdded(id));
        self.gfs.push(GenericFunction {
            name: name_id,
            arity,
            result,
            methods: Vec::new(),
        });
        self.gf_names.insert(name_id, id);
        Ok(id)
    }

    /// Immutable access to a generic function.
    #[inline]
    pub fn gf(&self, g: GfId) -> &GenericFunction {
        &self.gfs[g.index()]
    }

    /// Looks a generic function up by name.
    pub fn gf_id(&self, name: &str) -> Result<GfId> {
        self.names
            .lookup(name)
            .and_then(|n| self.gf_names.get(&n).copied())
            .ok_or_else(|| ModelError::UnknownGfName(name.to_string()))
    }

    /// The name of a generic function.
    #[inline]
    pub fn gf_name(&self, g: GfId) -> &str {
        self.names.resolve(self.gf(g).name)
    }

    /// Number of generic functions.
    #[inline]
    pub fn n_gfs(&self) -> usize {
        self.gfs.len()
    }

    /// Iterates all generic-function ids.
    pub fn gf_ids(&self) -> impl Iterator<Item = GfId> {
        (0..self.gfs.len()).map(GfId::from_index)
    }

    pub(crate) fn check_gf(&self, g: GfId) -> Result<()> {
        if g.index() < self.gfs.len() {
            Ok(())
        } else {
            Err(ModelError::BadGfId(g))
        }
    }

    // -------------------------------------------------------------- methods

    /// Adds a method to a generic function. The specializer list length must
    /// equal the generic function's arity; accessor methods must access an
    /// attribute available at their (single) specializer.
    pub fn add_method(
        &mut self,
        gf: GfId,
        label: impl Into<String>,
        specializers: Vec<Specializer>,
        kind: MethodKind,
        result: Option<ValueType>,
    ) -> Result<MethodId> {
        self.check_gf(gf)?;
        let expected = self.gf(gf).arity;
        if specializers.len() != expected {
            return Err(ModelError::ArityMismatch {
                gf,
                expected,
                got: specializers.len(),
            });
        }
        for s in &specializers {
            if let Specializer::Type(t) = s {
                self.check_type(*t)?;
            }
        }
        // Two methods of one generic function with identical specializer
        // tuples would make dispatch ambiguous (CLOS redefines instead of
        // coexisting); reject them.
        if self
            .gf(gf)
            .methods
            .iter()
            .any(|&m| self.method(m).specializers == specializers)
        {
            return Err(ModelError::Invalid(format!(
                "duplicate method signature for generic function `{}`",
                self.gf_name(gf)
            )));
        }
        if let Some(attr) = kind.accessed_attr() {
            self.check_attr(attr)?;
            let at = specializers
                .first()
                .and_then(|s| s.as_type())
                .ok_or_else(|| {
                    ModelError::Invalid("accessor method needs an object first argument".into())
                })?;
            if !self.attr_available_at(attr, at) {
                return Err(ModelError::AccessorAttrUnavailable { attr, at });
            }
        }
        let label = self.names.intern(&label.into());
        let id = MethodId::from_index(self.methods.len());
        self.note_mutation(SchemaDelta::MethodAdded { gf, method: id });
        self.methods.push(Method {
            gf,
            label,
            specializers,
            kind,
            result,
        });
        self.gfs[gf.index()].methods.push(id);
        Ok(id)
    }

    /// Immutable access to a method.
    #[inline]
    pub fn method(&self, m: MethodId) -> &Method {
        &self.methods[m.index()]
    }

    /// Mutable access to a method (used by method factorization to rewrite
    /// signatures and bodies in place, preserving the method's identity).
    #[inline]
    pub fn method_mut(&mut self, m: MethodId) -> &mut Method {
        let gf = self.methods[m.index()].gf;
        self.note_mutation(SchemaDelta::MethodTouched { gf, method: m });
        &mut self.methods[m.index()]
    }

    /// Number of methods.
    #[inline]
    pub fn n_methods(&self) -> usize {
        self.methods.len()
    }

    /// Iterates all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> {
        (0..self.methods.len()).map(MethodId::from_index)
    }

    /// The display label of a method.
    #[inline]
    pub fn method_label(&self, m: MethodId) -> &str {
        self.names.resolve(self.method(m).label)
    }

    /// Looks a method up by its display label.
    pub fn method_by_label(&self, label: &str) -> Result<MethodId> {
        self.names
            .lookup(label)
            .and_then(|n| self.method_ids().find(|&m| self.method(m).label == n))
            .ok_or_else(|| ModelError::Invalid(format!("no method labelled `{label}`")))
    }

    // ------------------------------------------------- accessor conveniences

    /// Creates the reader generic function + method `get_<attr>` specialized
    /// at `at` (which may be a proper subtype of the attribute's owner, as
    /// with the paper's `get_h2(B)`). Returns `(gf, method)`.
    pub fn add_reader(&mut self, attr: AttrId, at: TypeId) -> Result<(GfId, MethodId)> {
        self.check_attr(attr)?;
        let name = format!("get_{}", self.attr_name(attr));
        let result = Some(self.attr(attr).ty);
        let gf = match self.gf_id(&name) {
            Ok(g) => g,
            Err(_) => self.add_gf(name.clone(), 1, result)?,
        };
        let m = self.add_method(
            gf,
            name,
            vec![Specializer::Type(at)],
            MethodKind::Reader(attr),
            result,
        )?;
        Ok((gf, m))
    }

    /// Creates the writer generic function + method `set_<attr>` specialized
    /// at `at`, taking the new value as a second argument. Returns
    /// `(gf, method)`.
    pub fn add_writer(&mut self, attr: AttrId, at: TypeId) -> Result<(GfId, MethodId)> {
        self.check_attr(attr)?;
        let name = format!("set_{}", self.attr_name(attr));
        let value_spec = match self.attr(attr).ty {
            ValueType::Prim(p) => Specializer::Prim(p),
            ValueType::Object(t) => Specializer::Type(t),
        };
        let gf = match self.gf_id(&name) {
            Ok(g) => g,
            Err(_) => self.add_gf(name.clone(), 2, None)?,
        };
        let m = self.add_method(
            gf,
            name,
            vec![Specializer::Type(at), value_spec],
            MethodKind::Writer(attr),
            None,
        )?;
        Ok((gf, m))
    }

    /// Creates reader and writer accessors for `attr` at its owner type.
    pub fn add_accessors(&mut self, attr: AttrId) -> Result<()> {
        let owner = self.attr(attr).owner;
        self.add_reader(attr, owner)?;
        self.add_writer(attr, owner)?;
        Ok(())
    }

    // ------------------------------------------------------------ snapshots

    /// Freezes a copy-on-write snapshot of this schema (one deep clone;
    /// every [`SchemaSnapshot::clone`] after that is a pointer bump).
    pub fn snapshot(&self) -> SchemaSnapshot {
        self.clone().into_snapshot()
    }

    /// Freezes this schema into a snapshot without cloning it. A frozen
    /// fork drops its link to its own parent, so snapshots never chain.
    pub fn into_snapshot(mut self) -> SchemaSnapshot {
        self.parent = None;
        SchemaSnapshot {
            inner: Arc::new(self),
        }
    }
}

/// A cheap copy-on-write snapshot of a [`Schema`], shareable across
/// threads.
///
/// Read paths (`&Schema`) borrow the one shared schema — including its
/// dispatch-acceleration cache, so lookups any holder performs warm the
/// cache for every other holder of the same snapshot (the cache sits
/// behind a `Mutex` and is keyed by the generation counter, which no one
/// can bump through a snapshot because mutation requires `&mut Schema`).
/// Write paths must first [`fork`](SchemaSnapshot::fork) a private deep
/// copy; the fork carries the warm cache entries along, and its
/// mutations are invisible to the snapshot and to sibling forks.
///
/// This is the isolation primitive of the batch derivation engine
/// (`td-driver`): one snapshot of the base schema is shared read-only by
/// every worker, and each derivation runs on its own fork.
#[derive(Debug, Clone)]
pub struct SchemaSnapshot {
    inner: Arc<Schema>,
}

impl SchemaSnapshot {
    /// The shared, read-only schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.inner
    }

    /// A private deep copy for mutation (the copy-on-write "write" step).
    /// The fork starts from the snapshot's exact state, warm cache
    /// entries included, and remembers the snapshot as its
    /// [`fork_parent`](Schema::fork_parent) until its first mutation — a
    /// derivation on the fork compares against that frozen parent instead
    /// of cloning the schema a second time.
    pub fn fork(&self) -> Schema {
        let mut fork = (*self.inner).clone();
        fork.parent = Some(Arc::clone(&self.inner));
        fork
    }

    /// Number of live handles to the shared schema: snapshot clones, plus
    /// forks that are still unmutated. Diagnostic only.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl Deref for SchemaSnapshot {
    type Target = Schema;

    #[inline]
    fn deref(&self) -> &Schema {
        &self.inner
    }
}

impl From<Schema> for SchemaSnapshot {
    fn from(schema: Schema) -> Self {
        schema.into_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PrimType;

    #[test]
    fn duplicate_names_rejected() {
        let mut s = Schema::new();
        s.add_type("A", &[]).unwrap();
        assert!(matches!(
            s.add_type("A", &[]),
            Err(ModelError::DuplicateTypeName(_))
        ));
        let a = s.type_id("A").unwrap();
        s.add_attr("x", ValueType::INT, a).unwrap();
        assert!(matches!(
            s.add_attr("x", ValueType::STR, a),
            Err(ModelError::DuplicateAttrName(_))
        ));
        s.add_gf("f", 1, None).unwrap();
        assert!(matches!(
            s.add_gf("f", 2, None),
            Err(ModelError::DuplicateGfName(_))
        ));
    }

    #[test]
    fn method_arity_checked() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let f = s.add_gf("f", 2, None).unwrap();
        let err = s
            .add_method(
                f,
                "f1",
                vec![Specializer::Type(a)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
    }

    #[test]
    fn accessor_attr_must_be_available() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[]).unwrap(); // unrelated
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        assert!(s.add_reader(x, b).is_err());
        // ...but a subtype of the owner is fine (paper: get_h2(B)).
        let c = s.add_type("C", &[a]).unwrap();
        s.add_reader(x, c).unwrap();
    }

    #[test]
    fn accessor_conveniences_create_gfs() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("pay", ValueType::FLOAT, a).unwrap();
        s.add_accessors(x).unwrap();
        let get = s.gf_id("get_pay").unwrap();
        let set = s.gf_id("set_pay").unwrap();
        assert_eq!(s.gf(get).arity, 1);
        assert_eq!(s.gf(set).arity, 2);
        assert_eq!(s.gf(get).result, Some(ValueType::FLOAT));
        let m = s.gf(set).methods[0];
        assert_eq!(
            s.method(m).specializers[1],
            Specializer::Prim(PrimType::Float)
        );
    }

    #[test]
    fn shared_reader_gf_for_subtype_specializations() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (g1, _) = s.add_reader(x, a).unwrap();
        let (g2, _) = s.add_reader(x, b).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(s.gf(g1).methods.len(), 2);
    }

    #[test]
    fn method_lookup_by_label() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let f = s.add_gf("f", 1, None).unwrap();
        let m = s
            .add_method(
                f,
                "f_a",
                vec![Specializer::Type(a)],
                MethodKind::General(Default::default()),
                None,
            )
            .unwrap();
        assert_eq!(s.method_by_label("f_a").unwrap(), m);
        assert!(s.method_by_label("nope").is_err());
    }

    #[test]
    fn clone_is_deep() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let snapshot = s.clone();
        s.add_attr("x", ValueType::INT, a).unwrap();
        assert_eq!(snapshot.n_attrs(), 0);
        assert_eq!(s.n_attrs(), 1);
    }

    #[test]
    fn snapshot_clones_share_one_schema() {
        let mut s = Schema::new();
        s.add_type("A", &[]).unwrap();
        let snap = s.snapshot();
        let other = snap.clone();
        assert_eq!(snap.handles(), 2);
        // Both handles observe the same underlying allocation.
        assert!(std::ptr::eq(snap.schema(), other.schema()));
        drop(other);
        assert_eq!(snap.handles(), 1);
    }

    #[test]
    fn forks_are_isolated_from_snapshot_and_siblings() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let snap = s.into_snapshot();
        let mut fork1 = snap.fork();
        let mut fork2 = snap.fork();
        fork1.add_attr("x", ValueType::INT, a).unwrap();
        fork2.add_attr("y", ValueType::STR, a).unwrap();
        assert_eq!(snap.n_attrs(), 0);
        assert_eq!(fork1.n_attrs(), 1);
        assert_eq!(fork2.n_attrs(), 1);
        assert!(fork1.attr_id("y").is_err());
        assert!(fork2.attr_id("x").is_err());
    }

    #[test]
    fn fork_remembers_its_parent_until_mutated() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        assert!(s.fork_parent().is_none(), "a plain schema has no parent");
        let snap = s.into_snapshot();
        let mut fork = snap.fork();
        let parent = fork.fork_parent().expect("a fresh fork knows its parent");
        assert!(std::ptr::eq(parent.as_ref(), snap.schema()));
        drop(parent);
        assert_eq!(snap.handles(), 2, "the unmutated fork holds its parent");
        // A clone of an unmutated fork still equals the parent.
        assert!(fork.clone().fork_parent().is_some());
        // Neither the parent nor the link shows in `Debug`.
        assert!(!format!("{fork:?}").contains("parent"));

        fork.add_attr("x", ValueType::INT, a).unwrap();
        assert!(fork.fork_parent().is_none(), "a mutated fork forgets it");
        assert_eq!(snap.handles(), 1, "and stops pinning it");

        // Interning a name is a change too; freezing a fork drops the
        // link, so snapshots never chain.
        let mut fork = snap.fork();
        fork.intern("fresh");
        assert!(fork.fork_parent().is_none());
        let refrozen = snap.fork().into_snapshot();
        assert_eq!(snap.handles(), 1);
        assert!(refrozen.fork_parent().is_none());
    }

    #[test]
    fn snapshot_reads_warm_the_shared_cache() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let snap = s.into_snapshot();
        let other = snap.clone();
        snap.cpl(b).unwrap();
        // The sibling handle sees the entry the first handle populated.
        let stats = other.dispatch_cache_stats();
        assert!(stats.cpl_entries > 0, "{stats:?}");
        // Forks carry the warm entries with them.
        let fork = other.fork();
        assert!(fork.dispatch_cache_stats().cpl_entries > 0);
    }
}
