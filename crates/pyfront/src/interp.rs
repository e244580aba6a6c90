//! The simulated CPython interpreter with enclosure support.

use std::collections::BTreeSet;
use std::sync::Arc;

use enclosure_core::{compute_view, Policy};
use enclosure_support::IdMap;
use enclosure_vmem::{Access, Addr, Section, SectionKind, PAGE_SIZE};
use litterbox::deps::DepGraph;
use litterbox::{
    Backend, EnclosureDesc, EnclosureId, EnvContext, Fault, LitterBox, PackageDesc, ProgramDesc,
    ViewMap, TRUSTED_ENV,
};

use crate::module::PyModuleDef;
use crate::value::PyValue;

/// Simulated parse+compile cost per line of code at import.
const IMPORT_NS_PER_LOC: u64 = 100;
/// GC mark/sweep cost per visited object.
const GC_NS_PER_OBJECT: u64 = 40;
/// Object header size: refcount (8) + GC next pointer (8).
const HEADER_BYTES: u64 = 16;
/// Interpreter work per refcount update.
const REFCOUNT_NS: u64 = 2;

/// The name of the synthetic module holding decoupled metadata arenas.
pub const META_MODULE: &str = "py.meta";

/// How object metadata (refcounts, GC links) is laid out (§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataMode {
    /// CPython's real layout: metadata co-located with data. Updating a
    /// read-only object's refcount needs a switch to the trusted
    /// environment — the paper's conservative prototype (~18× slowdown).
    CoLocated,
    /// The proposed fix: metadata in a separate always-writable arena,
    /// no switches (~1.4× slowdown).
    Decoupled,
}

/// Interpreter statistics the §6.4 evaluation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PyStats {
    /// Trusted-environment switches taken for metadata updates (each
    /// round trip counts 2).
    pub metadata_switches: u64,
    /// Modules imported.
    pub imports: u64,
    /// Objects currently alive.
    pub objects_alive: u64,
    /// Objects reclaimed by GC so far.
    pub gc_freed: u64,
    /// Objects promoted from the young to the old generation.
    pub promotions: u64,
    /// Refcount operations performed.
    pub refcount_ops: u64,
}

#[derive(Debug, Clone, Copy)]
struct ObjInfo {
    meta: Addr,
    data: Addr,
    size: u64,
}

#[derive(Debug, Clone)]
struct PyEnclosure {
    id: EnclosureId,
    callsite: Addr,
    entry: String,
    policy: Policy,
    view: ViewMap,
}

/// Registered function bodies are `Fn` (reentrant), like real Python
/// functions; per-call state lives in interpreter objects.
type FnBox = Arc<dyn Fn(&mut PyCtx<'_>, PyValue) -> Result<PyValue, Fault> + Send + Sync>;

/// The simulated CPython interpreter (see the crate docs).
pub struct Interpreter {
    lb: LitterBox,
    mode: MetadataMode,
    registry: IdMap<Arc<str>, PyModuleDef>,
    loaded: BTreeSet<String>,
    functions: IdMap<String, FnBox>,
    enclosures: IdMap<String, PyEnclosure>,
    objects: IdMap<u64, ObjInfo>,
    allocator: crate::interp::bump::BumpArenas,
    gc_young: Option<Addr>,
    gc_old: Option<Addr>,
    module_stack: Vec<String>,
    enclosure_stack: Vec<String>,
    runtime_callsite: Addr,
    next_enclosure_id: u32,
    stats: PyStats,
}

impl std::fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("backend", &self.lb.backend())
            .field("mode", &self.mode)
            .field("loaded", &self.loaded)
            .finish_non_exhaustive()
    }
}

/// A tiny per-module bump allocator for Python objects.
///
/// CPython's pymalloc manages mmapped arenas per size class; the paper's
/// fork instantiates one allocator per module so objects from different
/// modules land on distinct pages (§5.2). Arena chunks are obtained from
/// the address space and `Transfer`red into the owning module.
mod bump {
    use super::{Addr, Fault, LitterBox, PAGE_SIZE};
    use enclosure_support::IdMap;

    const CHUNK_PAGES: u64 = 16;

    #[derive(Debug, Default)]
    pub struct BumpArenas {
        cursors: IdMap<String, (Addr, u64)>, // (next, remaining)
    }

    impl BumpArenas {
        pub fn alloc(
            &mut self,
            lb: &mut LitterBox,
            module: &str,
            size: u64,
        ) -> Result<Addr, Fault> {
            let size = size.max(8).next_multiple_of(8);
            let needs_new = match self.cursors.get(module) {
                Some((_, remaining)) => *remaining < size,
                None => true,
            };
            if needs_new {
                let pages = (size.div_ceil(PAGE_SIZE)).max(CHUNK_PAGES);
                let range = lb
                    .space_mut()
                    .alloc(pages * PAGE_SIZE)
                    .map_err(Fault::Memory)?;
                lb.transfer(range, None, module)?;
                self.cursors
                    .insert(module.to_owned(), (range.start(), range.len()));
            }
            let entry = self.cursors.get_mut(module).expect("just ensured");
            let addr = entry.0;
            entry.0 = entry.0 + size;
            entry.1 -= size;
            Ok(addr)
        }
    }
}

impl Interpreter {
    /// Starts an interpreter on the given backend.
    ///
    /// # Panics
    ///
    /// Panics only if the two bootstrap packages (`main`, `py.meta`)
    /// cannot be installed, which indicates a bug, not bad input.
    #[must_use]
    pub fn new(backend: Backend, mode: MetadataMode) -> Interpreter {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        let runtime_callsite = prog.verified_callsite();
        prog.add_package(&mut lb, "main", 1, 1, 1)
            .expect("bootstrap main module");
        prog.add_package(&mut lb, META_MODULE, 1, 1, 1)
            .expect("bootstrap metadata module");
        lb.init_incremental(prog).expect("bootstrap init");
        let mut loaded = BTreeSet::new();
        loaded.insert("main".to_owned());
        loaded.insert(META_MODULE.to_owned());
        Interpreter {
            lb,
            mode,
            registry: IdMap::default(),
            loaded,
            functions: IdMap::default(),
            enclosures: IdMap::default(),
            objects: IdMap::default(),
            allocator: bump::BumpArenas::default(),
            gc_young: None,
            gc_old: None,
            module_stack: vec!["main".to_owned()],
            enclosure_stack: Vec::new(),
            runtime_callsite,
            next_enclosure_id: 1,
            stats: PyStats::default(),
        }
    }

    /// The machine.
    #[must_use]
    pub fn lb(&self) -> &LitterBox {
        &self.lb
    }

    /// Mutable machine access.
    pub fn lb_mut(&mut self) -> &mut LitterBox {
        &mut self.lb
    }

    /// Interpreter statistics.
    #[must_use]
    pub fn stats(&self) -> PyStats {
        self.stats
    }

    /// The metadata layout in force.
    #[must_use]
    pub fn mode(&self) -> MetadataMode {
        self.mode
    }

    /// Makes a module available for import.
    pub fn register_module(&mut self, def: PyModuleDef) {
        self.registry.insert(def.name_str().into(), def);
    }

    /// Registers the body of `module.func`.
    pub fn register_fn(
        &mut self,
        name: &str,
        f: impl Fn(&mut PyCtx<'_>, PyValue) -> Result<PyValue, Fault> + Send + Sync + 'static,
    ) {
        self.functions.insert(name.to_owned(), Arc::new(f));
    }

    /// Imports a module (and, transitively, its dependencies), lazily:
    /// already-loaded modules are a no-op. Each load is an incremental
    /// `Init` (§5.2). An import triggered while an enclosure executes
    /// runs in the trusted environment and then *extends the executing
    /// enclosure's view* with the new modules, per the default policy.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for unknown modules (`ModuleNotFoundError`).
    pub fn import_module(&mut self, name: &str) -> Result<(), Fault> {
        if self.loaded.contains(name) {
            return Ok(());
        }
        let enclosed = self.lb.current_env() != TRUSTED_ENV;
        self.trusted_detour(|py| {
            let before: BTreeSet<String> = py.loaded.clone();
            py.import_inner(name)?;
            if enclosed {
                let new_modules: Vec<String> = py.loaded.difference(&before).cloned().collect();
                py.extend_current_enclosure_view(&new_modules)?;
            }
            Ok(())
        })
    }

    fn import_inner(&mut self, name: &str) -> Result<(), Fault> {
        if self.loaded.contains(name) {
            return Ok(());
        }
        let Some((module, def)) = self.registry.get_key_value(name) else {
            return Err(Fault::Init(format!(
                "ModuleNotFoundError: no module named '{name}'"
            )));
        };
        let (module, def) = (Arc::clone(module), def.clone());
        // Parse + compile cost.
        self.lb
            .clock_mut()
            .advance(def.loc_value() * IMPORT_NS_PER_LOC);
        // Code arena: the module's functions live in their own text
        // section, distinct from its object (data) arenas, so a module
        // mapped without execute rights still exposes its data (§5.2).
        let text_pages = 1 + def.loc_value() / 4000;
        let range = self
            .lb
            .space_mut()
            .alloc(text_pages * PAGE_SIZE)
            .map_err(Fault::Memory)?;
        let mut prog = ProgramDesc::new();
        prog.add_package_desc(PackageDesc {
            name: name.to_owned(),
            sections: vec![
                Section::new(format!("{name}.text"), SectionKind::Text, range)
                    .map_err(|e| Fault::Init(e.to_string()))?,
            ],
            deps: def.dep_list().to_vec(),
        });
        self.lb.init_incremental(prog)?;
        self.lb
            .clock_mut()
            .record(enclosure_telemetry::Event::IncrementalInit { module });
        self.loaded.insert(name.to_owned());
        self.stats.imports += 1;
        // Python executes the module's top level, which imports its own
        // dependencies.
        for dep in def.dep_list().to_vec() {
            self.import_inner(&dep)?;
        }
        Ok(())
    }

    /// Adds exactly the modules this import loaded (they are available to
    /// the executing enclosure under the default policy, §5.2) to the
    /// current enclosure's view, unless the declared policy explicitly
    /// restricts them. Modules that were already loaded before the import
    /// are deliberately NOT touched: a dynamic import must not widen
    /// access to unrelated foreign modules.
    fn extend_current_enclosure_view(&mut self, new_modules: &[String]) -> Result<(), Fault> {
        let Some(current) = self.enclosure_stack.last().cloned() else {
            return Ok(());
        };
        let enc = self
            .enclosures
            .get(&current)
            .expect("stack holds known enclosures");
        let restricted: IdMap<&str, Access> = enc
            .policy
            .modifiers()
            .iter()
            .map(|(p, a)| (p.as_str(), *a))
            .collect();
        let mut view = enc.view.clone();
        for module in new_modules {
            if view.contains_key(module) || module == META_MODULE {
                continue;
            }
            match restricted.get(module.as_str()) {
                Some(rights) if rights.is_none() => {} // explicitly unmapped
                Some(rights) => {
                    view.insert(module.clone(), *rights);
                }
                None => {
                    view.insert(module.clone(), Access::RWX);
                }
            }
        }
        let id = enc.id;
        self.lb.update_enclosure_view(id, view.clone())?;
        self.enclosures.get_mut(&current).expect("checked").view = view;
        Ok(())
    }

    /// Declares an enclosure around `entry` (`module.func`), importing
    /// the modules it needs first.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for policy errors or unknown modules.
    pub fn declare_enclosure(
        &mut self,
        name: &str,
        entry: &str,
        uses: &[&str],
        policy_literal: &str,
    ) -> Result<(), Fault> {
        let policy = Policy::parse(policy_literal)
            .map_err(|e| Fault::Init(format!("enclosure '{name}': {e}")))?;
        let (entry_module, _) = entry.split_once('.').ok_or_else(|| {
            Fault::Init(format!("entry '{entry}' is not of the form module.func"))
        })?;
        let mut roots = vec![entry_module.to_owned()];
        roots.extend(uses.iter().map(|&u| u.to_owned()));
        for module in &roots {
            self.import_module(module)?;
        }
        for (module, _) in policy.modifiers() {
            self.import_module(module)?;
        }
        let graph = self.loaded_graph();
        let root_refs: Vec<&str> = roots.iter().map(String::as_str).collect();
        let mut view = compute_view(&graph, &root_refs, &policy)
            .map_err(|e| Fault::Init(format!("enclosure '{name}': {e}")))?;
        if self.mode == MetadataMode::Decoupled {
            view.insert(META_MODULE.to_owned(), Access::RW);
        }
        let id = EnclosureId(self.next_enclosure_id);
        self.next_enclosure_id += 1;
        let mut prog = ProgramDesc::new();
        let callsite = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id,
            name: name.to_owned(),
            view: view.clone(),
            policy: policy.sysfilter().clone(),
            marked: roots.clone(),
        });
        self.lb.init_incremental(prog)?;
        self.enclosures.insert(
            name.to_owned(),
            PyEnclosure {
                id,
                callsite,
                entry: entry.to_owned(),
                policy,
                view,
            },
        );
        Ok(())
    }

    fn loaded_graph(&self) -> DepGraph {
        self.loaded
            .iter()
            .map(|m| {
                let deps = self
                    .registry
                    .get(m.as_str())
                    .map(|d| d.dep_list().to_vec())
                    .unwrap_or_default();
                (m.clone(), deps)
            })
            .collect()
    }

    /// Calls `module.func` from the top level.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] from the body or the invoke check.
    pub fn call(&mut self, func: &str, arg: PyValue) -> Result<PyValue, Fault> {
        PyCtx { py: self }.call(func, arg)
    }

    /// Invokes a declared enclosure.
    ///
    /// # Errors
    ///
    /// Switch faults or any fault from the body.
    pub fn call_enclosed(&mut self, name: &str, arg: PyValue) -> Result<PyValue, Fault> {
        PyCtx { py: self }.call_enclosed(name, arg)
    }

    /// Allocates an object holding `bytes` in `module`'s arena (trusted
    /// top-level allocation; closures use [`PyCtx::alloc`]).
    ///
    /// # Errors
    ///
    /// Allocator or transfer faults.
    pub fn alloc_in(&mut self, module: &str, bytes: &[u8]) -> Result<Addr, Fault> {
        self.import_module(module)?;
        self.alloc_object(module, bytes)
    }

    fn alloc_object(&mut self, module: &str, bytes: &[u8]) -> Result<Addr, Fault> {
        let size = bytes.len() as u64;
        let (meta, data) = match self.mode {
            MetadataMode::CoLocated => {
                let base = self
                    .allocator
                    .alloc(&mut self.lb, module, HEADER_BYTES + size)?;
                (base, base + HEADER_BYTES)
            }
            MetadataMode::Decoupled => {
                let data = self.allocator.alloc(&mut self.lb, module, size)?;
                let meta = self
                    .allocator
                    .alloc(&mut self.lb, META_MODULE, HEADER_BYTES)?;
                (meta, data)
            }
        };
        // Header writes (refcount = 1, GC enqueue). Inside an enclosure,
        // the co-located prototype pays a trusted round trip here when the
        // arena is not writable; freshly allocated own-module arenas are
        // writable, so this usually stays cheap — the GC *enqueue* below
        // still touches interpreter state and, in the conservative mode,
        // models the controlled switch of §5.2.
        let young_head = self.gc_young.take();
        self.write_meta(meta, 1)?;
        self.write_meta(meta + 8, young_head.map_or(0, |a| a.0))?;
        self.gc_young = Some(data);
        if !bytes.is_empty() {
            self.store_data(data, bytes)?;
        }
        self.objects.insert(data.0, ObjInfo { meta, data, size });
        self.stats.objects_alive += 1;
        Ok(data)
    }

    fn store_data(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), Fault> {
        match self.lb.store(addr, bytes) {
            Ok(()) => Ok(()),
            Err(Fault::Memory(_)) if self.lb.current_env() == TRUSTED_ENV => {
                Err(Fault::Init("trusted store failed".into()))
            }
            Err(e) => Err(e),
        }
    }

    fn obj(&self, data: Addr) -> Result<ObjInfo, Fault> {
        self.objects
            .get(&data.0)
            .copied()
            .ok_or_else(|| Fault::Init(format!("not a Python object: {data}")))
    }

    /// `obj`, if `len` bytes at `off` lie inside it.
    fn readable(&self, obj: Addr, off: u64, len: u64) -> Result<ObjInfo, Fault> {
        let info = self.obj(obj)?;
        if off.checked_add(len).is_none_or(|end| end > info.size) {
            return Err(Fault::Init(format!(
                "object read out of bounds: {off}+{len} > {}",
                info.size
            )));
        }
        Ok(info)
    }

    /// Reads a metadata word, switching to the trusted environment when
    /// the active view forbids it (co-located prototype, §5.2). The view
    /// is asked first, so the expected denial builds no fault, and the
    /// word it permits is read without a second check.
    fn read_meta(&mut self, addr: Addr) -> Result<u64, Fault> {
        if self.lb.permits(addr, 8, Access::R) {
            if let Ok(word) = self.lb.space().read_u64(addr) {
                return Ok(word);
            }
        }
        self.trusted_detour(|py| py.lb.load_u64(addr))
    }

    /// Writes a metadata word, with the same trusted-switch fallback.
    fn write_meta(&mut self, addr: Addr, value: u64) -> Result<(), Fault> {
        let permitted = self.lb.permits(addr, 8, Access::W);
        if permitted && self.lb.space_mut().write_u64(addr, value).is_ok() {
            return Ok(());
        }
        self.trusted_detour(|py| py.lb.store_u64(addr, value))
    }

    /// Runs `f` in the trusted environment, where interpreter state
    /// (metadata, the module table, the GC lists) is writable. From
    /// inside an enclosure that is §5.2's controlled switch: an `Execute`
    /// to trusted and one back, counted as two metadata switches. The
    /// `Execute` back is retried uninjected
    /// ([`LitterBox::retry_uninjected`]), so whatever `f` or the switch
    /// did, the caller resumes in its own environment.
    fn trusted_detour<R>(
        &mut self,
        f: impl FnOnce(&mut Interpreter) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        if self.lb.current_env() == TRUSTED_ENV {
            return f(self);
        }
        let cs = self.runtime_callsite;
        let mut ctx = EnvContext::trusted();
        self.lb.execute(&mut ctx, cs)?;
        let result = f(self);
        self.lb.retry_uninjected(|lb| lb.execute(&mut ctx, cs))?;
        self.stats.metadata_switches += 2;
        self.lb
            .clock_mut()
            .record(enclosure_telemetry::Event::MetadataSwitch);
        result
    }

    fn incref_meta(&mut self, meta: Addr) -> Result<(), Fault> {
        self.lb.clock_mut().advance(REFCOUNT_NS);
        self.stats.refcount_ops += 1;
        let rc = self.read_meta(meta)?;
        self.write_meta(meta, rc + 1)
    }

    /// Decrements an object's refcount. Objects reaching zero are
    /// reclaimed by the next GC cycle, not immediately.
    ///
    /// # Errors
    ///
    /// [`Fault`] for unknown objects or irrecoverable metadata access.
    pub fn decref(&mut self, obj: Addr) -> Result<(), Fault> {
        let info = self.obj(obj)?;
        self.decref_meta(info.meta)
    }

    fn decref_meta(&mut self, meta: Addr) -> Result<(), Fault> {
        self.lb.clock_mut().advance(REFCOUNT_NS);
        self.stats.refcount_ops += 1;
        let rc = self.read_meta(meta)?;
        self.write_meta(meta, rc.saturating_sub(1))
    }

    /// An object's current refcount (diagnostics).
    ///
    /// # Errors
    ///
    /// [`Fault`] for unknown objects.
    pub fn refcount(&mut self, obj: Addr) -> Result<u64, Fault> {
        let info = self.obj(obj)?;
        self.read_meta(info.meta)
    }

    /// Runs a young-generation GC cycle: walks the embedded linked list
    /// in the trusted environment, reclaims refcount-zero objects, and
    /// *promotes* survivors to the old generation — CPython's
    /// generational scheme (§5.2). Returns the number reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates `Execute` faults.
    pub fn collect_garbage(&mut self) -> Result<u64, Fault> {
        self.collect(false)
    }

    /// Runs a full collection: the young generation (with promotion)
    /// followed by the old generation.
    ///
    /// # Errors
    ///
    /// Propagates `Execute` faults.
    pub fn collect_full(&mut self) -> Result<u64, Fault> {
        self.collect(true)
    }

    fn collect(&mut self, full: bool) -> Result<u64, Fault> {
        self.trusted_detour(|py| {
            let young = py.sweep_young_promoting()?;
            let old = if full { py.sweep_old()? } else { 0 };
            Ok(young + old)
        })
    }

    /// Young-generation sweep: free the dead, promote the living.
    fn sweep_young_promoting(&mut self) -> Result<u64, Fault> {
        let mut cursor = self.gc_young.take();
        let mut freed = 0u64;
        while let Some(data) = cursor {
            let info = self.obj(data)?;
            self.lb.clock_mut().advance(GC_NS_PER_OBJECT);
            let rc = self.lb.load_u64(info.meta)?;
            let next_raw = self.lb.load_u64(info.meta + 8)?;
            cursor = (next_raw != 0).then_some(Addr(next_raw));
            if rc == 0 {
                self.objects.remove(&data.0);
                self.stats.objects_alive -= 1;
                self.stats.gc_freed += 1;
                freed += 1;
            } else {
                let old_head = self.gc_old.map_or(0, |a| a.0);
                self.lb.store_u64(info.meta + 8, old_head)?;
                self.gc_old = Some(data);
                self.stats.promotions += 1;
            }
        }
        Ok(freed)
    }

    /// Old-generation sweep (no promotion target): classic unlink walk.
    fn sweep_old(&mut self) -> Result<u64, Fault> {
        let mut freed = 0u64;
        let mut new_head: Option<Addr> = None;
        let mut prev_meta: Option<Addr> = None;
        let mut cursor = self.gc_old;
        while let Some(data) = cursor {
            let info = self.obj(data)?;
            self.lb.clock_mut().advance(GC_NS_PER_OBJECT);
            let rc = self.lb.load_u64(info.meta)?;
            let next_raw = self.lb.load_u64(info.meta + 8)?;
            let next = (next_raw != 0).then_some(Addr(next_raw));
            if rc == 0 {
                if let Some(pm) = prev_meta {
                    self.lb.store_u64(pm + 8, next_raw)?;
                } else {
                    new_head = next;
                }
                self.objects.remove(&data.0);
                self.stats.objects_alive -= 1;
                self.stats.gc_freed += 1;
                freed += 1;
            } else {
                if prev_meta.is_none() {
                    new_head = Some(data);
                }
                prev_meta = Some(info.meta);
            }
            cursor = next;
        }
        self.gc_old = new_head;
        Ok(freed)
    }
}

/// The execution context Python function bodies receive.
pub struct PyCtx<'a> {
    pub(crate) py: &'a mut Interpreter,
}

impl std::fmt::Debug for PyCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PyCtx")
            .field("module", &self.current_module())
            .finish_non_exhaustive()
    }
}

impl PyCtx<'_> {
    /// The machine (read).
    #[must_use]
    pub fn lb(&self) -> &LitterBox {
        &self.py.lb
    }

    /// The machine (write): `sys_*` calls and raw checked access.
    pub fn lb_mut(&mut self) -> &mut LitterBox {
        &mut self.py.lb
    }

    /// The module whose code is executing.
    #[must_use]
    pub fn current_module(&self) -> &str {
        self.py.module_stack.last().map_or("main", String::as_str)
    }

    /// Charges workload compute.
    pub fn compute(&mut self, ns: u64) {
        self.py.lb.clock_mut().advance(ns);
    }

    /// Allocates an object in the current module's arena.
    ///
    /// # Errors
    ///
    /// Allocator or transfer faults.
    pub fn alloc(&mut self, bytes: &[u8]) -> Result<Addr, Fault> {
        let module = self.current_module().to_owned();
        self.py.alloc_object(&module, bytes)
    }

    /// Reads `len` bytes at `off`, with CPython's borrow protocol:
    /// incref, access, decref — the per-access metadata traffic §6.4
    /// measures.
    ///
    /// # Errors
    ///
    /// View violations on the data itself surface as [`Fault::Memory`];
    /// an unknown object, or a span that does not fit inside it (an
    /// `off + len` that overflows included), is [`Fault::Init`] and
    /// touches no refcount.
    pub fn read(&mut self, obj: Addr, off: u64, len: u64) -> Result<Vec<u8>, Fault> {
        // Bounded by the object before the buffer exists.
        self.py.readable(obj, off, len)?;
        let mut buf = vec![0; len as usize];
        self.read_into(obj, off, &mut buf)?;
        Ok(buf)
    }

    /// [`PyCtx::read`] into the caller's buffer: `buf.len()` bytes at
    /// `off`, under the same borrow protocol.
    ///
    /// # Errors
    ///
    /// As for [`PyCtx::read`].
    pub fn read_into(&mut self, obj: Addr, off: u64, buf: &mut [u8]) -> Result<(), Fault> {
        let info = self.py.readable(obj, off, buf.len() as u64)?;
        self.py.incref_meta(info.meta)?;
        let result = self.py.lb.load_into(info.data + off, buf);
        self.py.decref_meta(info.meta)?;
        result
    }

    /// Writes bytes at `off` under the same borrow protocol.
    ///
    /// # Errors
    ///
    /// [`Fault::Memory`] when the active view lacks write rights on the
    /// object's module; [`Fault::Init`] as for [`PyCtx::read`].
    pub fn write(&mut self, obj: Addr, off: u64, bytes: &[u8]) -> Result<(), Fault> {
        let info = self.py.obj(obj)?;
        if off
            .checked_add(bytes.len() as u64)
            .is_none_or(|end| end > info.size)
        {
            return Err(Fault::Init("object write out of bounds".into()));
        }
        self.py.incref_meta(info.meta)?;
        let result = self.py.lb.store(info.data + off, bytes);
        self.py.decref_meta(info.meta)?;
        result
    }

    /// `localcopy`: deep-copies an object into the caller's module
    /// (§5.2), the explicit-encapsulation primitive.
    ///
    /// # Errors
    ///
    /// Read faults on the source or allocation faults on the copy.
    pub fn localcopy(&mut self, obj: Addr) -> Result<Addr, Fault> {
        let info = self.py.obj(obj)?;
        let bytes = self.read(obj, 0, info.size)?;
        self.alloc(&bytes)
    }

    /// Object size in bytes.
    ///
    /// # Errors
    ///
    /// [`Fault`] for unknown objects.
    pub fn size_of(&mut self, obj: Addr) -> Result<u64, Fault> {
        Ok(self.py.obj(obj)?.size)
    }

    /// Dynamic import from inside running code (§5.2).
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for unknown modules.
    pub fn import_module(&mut self, name: &str) -> Result<(), Fault> {
        self.py.import_module(name)
    }

    /// Calls `module.func`, checking the invoke right on its module.
    ///
    /// # Errors
    ///
    /// [`Fault::ExecDenied`] without the `X` right; [`Fault::Init`] for
    /// unregistered functions.
    pub fn call(&mut self, func: &str, arg: PyValue) -> Result<PyValue, Fault> {
        let (module, _) = func
            .split_once('.')
            .ok_or_else(|| Fault::Init(format!("'{func}' is not of the form module.func")))?;
        self.py.lb.check_invoke(module)?;
        let f = self
            .py
            .functions
            .get(func)
            .cloned()
            .ok_or_else(|| Fault::Init(format!("unregistered function '{func}'")))?;
        self.py.lb.clock_mut().charge_call();
        self.py.module_stack.push(module.to_owned());
        let result = f(self, arg);
        self.py.module_stack.pop();
        result
    }

    /// Invokes a declared enclosure (nesting allowed, monotone). However
    /// the call ends, the caller resumes in its own environment: a
    /// failed switch back unwinds to the caller's frame
    /// ([`LitterBox::leave`]), never past it.
    ///
    /// # Errors
    ///
    /// Switch faults or any fault from the body, which stays the root
    /// cause when the switch back fails too.
    pub fn call_enclosed(&mut self, name: &str, arg: PyValue) -> Result<PyValue, Fault> {
        let enc = self
            .py
            .enclosures
            .get(name)
            .cloned()
            .ok_or_else(|| Fault::Init(format!("unknown enclosure '{name}'")))?;
        let token = self.py.lb.prolog(enc.id, enc.callsite)?;
        self.py.enclosure_stack.push(name.to_owned());
        let result = self.call(&enc.entry, arg);
        self.py.enclosure_stack.pop();
        self.py.lb.leave(token, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litterbox::{InjectionPlan, InjectionSite};

    fn setup(backend: Backend, mode: MetadataMode) -> Interpreter {
        let mut py = Interpreter::new(backend, mode);
        py.register_module(PyModuleDef::new("secret"));
        py.register_module(PyModuleDef::new("numpy").loc(50_000));
        py.register_module(PyModuleDef::new("plotlib").deps(&["numpy"]).loc(110_000));
        py.register_module(PyModuleDef::new("colorsys").loc(300));
        py
    }

    #[test]
    fn lazy_import_registers_with_litterbox_incrementally() {
        let mut py = setup(Backend::Vtx, MetadataMode::CoLocated);
        assert_eq!(py.stats().imports, 0);
        py.import_module("plotlib").unwrap();
        assert_eq!(py.stats().imports, 2, "plotlib + numpy");
        py.import_module("plotlib").unwrap();
        assert_eq!(py.stats().imports, 2, "idempotent");
        assert!(py.import_module("pandas").is_err(), "ModuleNotFoundError");
    }

    #[test]
    fn objects_live_in_their_modules_arena() {
        let mut py = setup(Backend::Mpk, MetadataMode::CoLocated);
        let obj = py.alloc_in("secret", &[1, 2, 3, 4]).unwrap();
        assert_eq!(py.lb().package_at(obj), Some("secret"));
        assert_eq!(py.refcount(obj).unwrap(), 1);
    }

    #[test]
    fn enclosure_reads_shared_secret_but_cannot_write() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut py = setup(backend, MetadataMode::CoLocated);
            let data = py.alloc_in("secret", &[9, 8, 7, 6]).unwrap();
            py.register_fn("plotlib.render", |ctx, arg| {
                let obj = arg.as_obj()?;
                let bytes = ctx.read(obj, 0, 4)?;
                assert!(ctx.write(obj, 0, &[0]).is_err(), "read-only share");
                Ok(PyValue::Bytes(bytes))
            });
            py.declare_enclosure("plot", "plotlib.render", &[], "secret: R, none")
                .unwrap();
            let out = py.call_enclosed("plot", PyValue::Obj(data)).unwrap();
            assert_eq!(out.as_bytes().unwrap(), vec![9, 8, 7, 6], "{backend}");
        }
    }

    #[test]
    fn colocated_readonly_access_costs_trusted_switches() {
        let mut py = setup(Backend::Vtx, MetadataMode::CoLocated);
        let data = py.alloc_in("secret", &[1; 64]).unwrap();
        py.register_fn("plotlib.render", |ctx, arg| {
            let obj = arg.as_obj()?;
            for i in 0..10 {
                ctx.read(obj, i, 1)?;
            }
            Ok(PyValue::None)
        });
        py.declare_enclosure("plot", "plotlib.render", &[], "secret: R, none")
            .unwrap();
        let before = py.stats().metadata_switches;
        py.call_enclosed("plot", PyValue::Obj(data)).unwrap();
        let switches = py.stats().metadata_switches - before;
        // 10 reads × (incref + decref) × a 2-switch round trip each.
        assert_eq!(switches, 40);
    }

    #[test]
    fn decoupled_mode_eliminates_metadata_switches() {
        let mut py = setup(Backend::Vtx, MetadataMode::Decoupled);
        let data = py.alloc_in("secret", &[1; 64]).unwrap();
        py.register_fn("plotlib.render", |ctx, arg| {
            let obj = arg.as_obj()?;
            for i in 0..10 {
                ctx.read(obj, i, 1)?;
            }
            Ok(PyValue::None)
        });
        py.declare_enclosure("plot", "plotlib.render", &[], "secret: R, none")
            .unwrap();
        let before = py.stats().metadata_switches;
        py.call_enclosed("plot", PyValue::Obj(data)).unwrap();
        assert_eq!(py.stats().metadata_switches - before, 0);
        // But refcounts still happened.
        assert!(py.stats().refcount_ops >= 20);
    }

    #[test]
    fn enclosed_import_extends_the_running_enclosures_view() {
        let mut py = setup(Backend::Mpk, MetadataMode::CoLocated);
        py.register_fn("plotlib.render", |ctx, _arg| {
            // colorsys is not a static dependency: import it mid-run.
            ctx.import_module("colorsys")?;
            // Now callable/visible under the default policy.
            ctx.lb_mut().check_invoke("colorsys")?;
            Ok(PyValue::None)
        });
        py.declare_enclosure("plot", "plotlib.render", &[], "none")
            .unwrap();
        py.call_enclosed("plot", PyValue::None).unwrap();
        assert!(py.stats().imports >= 3);
    }

    #[test]
    fn explicitly_restricted_modules_stay_restricted_after_dynamic_import() {
        let mut py = setup(Backend::Mpk, MetadataMode::CoLocated);
        py.register_fn("plotlib.render", |ctx, _arg| {
            ctx.import_module("colorsys")?;
            // The declared policy unmapped colorsys; dynamic import must
            // not resurrect it.
            assert!(ctx.lb_mut().check_invoke("colorsys").is_err());
            Ok(PyValue::None)
        });
        py.declare_enclosure("plot", "plotlib.render", &[], "colorsys: U, none")
            .unwrap();
        py.call_enclosed("plot", PyValue::None).unwrap();
    }

    #[test]
    fn localcopy_moves_data_into_caller_module() {
        let mut py = setup(Backend::Mpk, MetadataMode::CoLocated);
        let data = py.alloc_in("secret", b"confidential").unwrap();
        py.register_fn("plotlib.render", |ctx, arg| {
            let obj = arg.as_obj()?;
            let copy = ctx.localcopy(obj)?;
            Ok(PyValue::Obj(copy))
        });
        py.declare_enclosure("plot", "plotlib.render", &[], "secret: R, none")
            .unwrap();
        let copy = py
            .call_enclosed("plot", PyValue::Obj(data))
            .unwrap()
            .as_obj()
            .unwrap();
        assert_eq!(py.lb().package_at(copy), Some("plotlib"));
        assert_ne!(copy, data);
    }

    #[test]
    fn gc_reclaims_refcount_zero_objects() {
        let mut py = setup(Backend::Baseline, MetadataMode::CoLocated);
        let a = py.alloc_in("secret", &[1]).unwrap();
        let b = py.alloc_in("secret", &[2]).unwrap();
        let c = py.alloc_in("secret", &[3]).unwrap();
        py.decref(b).unwrap(); // rc 0
        let freed = py.collect_garbage().unwrap();
        assert_eq!(freed, 1);
        assert_eq!(py.stats().objects_alive, 2);
        // Survivors still valid.
        assert_eq!(py.refcount(a).unwrap(), 1);
        assert_eq!(py.refcount(c).unwrap(), 1);
        // Another cycle frees nothing.
        assert_eq!(py.collect_garbage().unwrap(), 0);
    }

    #[test]
    fn gc_head_unlink_order() {
        let mut py = setup(Backend::Baseline, MetadataMode::CoLocated);
        let a = py.alloc_in("secret", &[1]).unwrap();
        let b = py.alloc_in("secret", &[2]).unwrap();
        // Free the newest (list head) and the oldest.
        py.decref(b).unwrap();
        py.decref(a).unwrap();
        assert_eq!(py.collect_garbage().unwrap(), 2);
        assert_eq!(py.stats().objects_alive, 0);
        let d = py.alloc_in("secret", &[4]).unwrap();
        assert_eq!(py.collect_garbage().unwrap(), 0);
        assert_eq!(py.refcount(d).unwrap(), 1);
    }

    #[test]
    fn survivors_are_promoted_to_the_old_generation() {
        let mut py = setup(Backend::Baseline, MetadataMode::CoLocated);
        let a = py.alloc_in("secret", &[1]).unwrap();
        let b = py.alloc_in("secret", &[2]).unwrap();
        py.decref(b).unwrap();
        assert_eq!(py.collect_garbage().unwrap(), 1);
        assert_eq!(py.stats().promotions, 1, "a survived and was promoted");
        // a's garbage is now old-generation: a young collection misses it.
        py.decref(a).unwrap();
        assert_eq!(py.collect_garbage().unwrap(), 0, "young gen is empty");
        assert_eq!(py.collect_full().unwrap(), 1, "full collection finds it");
        assert_eq!(py.stats().objects_alive, 0);
    }

    #[test]
    fn old_generation_unlinks_interior_nodes() {
        let mut py = setup(Backend::Baseline, MetadataMode::CoLocated);
        let objs: Vec<_> = (0..5)
            .map(|i| py.alloc_in("secret", &[i]).unwrap())
            .collect();
        assert_eq!(py.collect_garbage().unwrap(), 0, "all live, all promoted");
        assert_eq!(py.stats().promotions, 5);
        // Kill the middle of the old list.
        py.decref(objs[2]).unwrap();
        assert_eq!(py.collect_full().unwrap(), 1);
        // Remaining objects still intact and reachable.
        for (i, obj) in objs.iter().enumerate() {
            if i != 2 {
                assert_eq!(py.refcount(*obj).unwrap(), 1, "obj {i}");
            }
        }
        // Kill the rest; a full collection drains the old generation.
        for (i, obj) in objs.iter().enumerate() {
            if i != 2 {
                py.decref(*obj).unwrap();
            }
        }
        assert_eq!(py.collect_full().unwrap(), 4);
        assert_eq!(py.stats().objects_alive, 0);
    }

    #[test]
    fn gc_inside_enclosure_switches_to_trusted() {
        let mut py = setup(Backend::Vtx, MetadataMode::CoLocated);
        py.register_fn("plotlib.render", |ctx, _arg| {
            // Allocate garbage, then trigger a collection from inside.
            let tmp = ctx.alloc(&[0; 32])?;
            ctx.py.decref(tmp)?;
            let freed = ctx.py.collect_garbage()?;
            Ok(PyValue::Int(i64::try_from(freed).expect("fits")))
        });
        py.declare_enclosure("plot", "plotlib.render", &[], "none")
            .unwrap();
        let before = py.stats().metadata_switches;
        let freed = py.call_enclosed("plot", PyValue::None).unwrap();
        assert_eq!(freed, PyValue::Int(1));
        assert!(py.stats().metadata_switches > before, "controlled switch");
    }

    #[test]
    fn syscalls_are_filtered_in_enclosures() {
        let mut py = setup(Backend::Vtx, MetadataMode::CoLocated);
        py.register_fn("plotlib.render", |ctx, _arg| {
            assert!(ctx.lb_mut().sys_socket().is_err(), "none filter");
            Ok(PyValue::None)
        });
        py.declare_enclosure("plot", "plotlib.render", &[], "none")
            .unwrap();
        py.call_enclosed("plot", PyValue::None).unwrap();
    }

    #[test]
    fn python_enclosures_nest_monotonically() {
        let mut py = setup(Backend::Vtx, MetadataMode::Decoupled);
        py.register_module(PyModuleDef::new("inner_mod"));
        py.register_fn("inner_mod.run", |ctx, _arg| {
            // The outer enclosure's packages are gone in here.
            assert!(ctx.lb_mut().check_invoke("plotlib").is_err());
            Ok(PyValue::Int(7))
        });
        py.register_fn("plotlib.render", |ctx, _arg| {
            ctx.call_enclosed("inner", PyValue::None)
        });
        py.declare_enclosure("inner", "inner_mod.run", &[], "none")
            .unwrap();
        py.declare_enclosure("outer", "plotlib.render", &["inner_mod"], "none")
            .unwrap();
        let out = py.call_enclosed("outer", PyValue::None).unwrap();
        assert_eq!(out, PyValue::Int(7));
    }

    #[test]
    fn python_nested_escalation_faults() {
        let mut py = setup(Backend::Mpk, MetadataMode::Decoupled);
        py.register_module(PyModuleDef::new("narrow_mod"));
        py.register_fn("plotlib.render", |_ctx, _arg| Ok(PyValue::None));
        py.register_fn("narrow_mod.run", |ctx, _arg| {
            // Attempting to enter a *wider* enclosure (plotlib + numpy)
            // from a narrow one must fault.
            ctx.call_enclosed("wide", PyValue::None)
        });
        py.declare_enclosure("wide", "plotlib.render", &[], "none")
            .unwrap();
        py.declare_enclosure("narrow", "narrow_mod.run", &[], "none")
            .unwrap();
        let err = py.call_enclosed("narrow", PyValue::None).unwrap_err();
        assert!(matches!(err, Fault::Escalation { .. }), "{err}");
    }

    /// A failed epilog is contained: the interpreter is back in the
    /// trusted environment, the caller sees the body's own fault when
    /// there is one (the epilog's otherwise), and the next enclosed call
    /// runs normally.
    #[test]
    fn failed_epilogs_restore_the_trusted_environment() {
        for body_fails in [false, true] {
            let mut py = setup(Backend::Vtx, MetadataMode::CoLocated);
            py.register_fn("plotlib.render", move |ctx, _arg| {
                ctx.lb_mut()
                    .clock_mut()
                    .arm_injection(InjectionPlan::once(InjectionSite::Cr3Write));
                if body_fails {
                    return Err(Fault::Init("render failed".into()));
                }
                Ok(PyValue::None)
            });
            py.declare_enclosure("plot", "plotlib.render", &[], "none")
                .unwrap();
            let err = py.call_enclosed("plot", PyValue::None).unwrap_err();
            if body_fails {
                assert!(
                    matches!(err, Fault::Init(ref m) if m == "render failed"),
                    "{err}"
                );
            } else {
                assert!(
                    matches!(err, Fault::Transient { site: "cr3_write" }),
                    "{err}"
                );
            }
            assert_eq!(
                py.lb().current_env(),
                TRUSTED_ENV,
                "body_fails={body_fails}"
            );
            py.register_fn("plotlib.render", |_ctx, _arg| Ok(PyValue::Int(1)));
            let out = py.call_enclosed("plot", PyValue::None).unwrap();
            assert_eq!(out, PyValue::Int(1), "body_fails={body_fails}");
            assert_eq!(py.lb().current_env(), TRUSTED_ENV);
        }
    }

    #[test]
    fn failed_nested_switch_back_keeps_the_outer_view() {
        let mut py = setup(Backend::Vtx, MetadataMode::CoLocated);
        py.register_fn("numpy.inner", |ctx, _arg| {
            ctx.lb_mut()
                .clock_mut()
                .arm_injection(InjectionPlan::once(InjectionSite::Cr3Write));
            Ok(PyValue::None)
        });
        py.register_fn("plotlib.outer", |ctx, _arg| {
            let inner = ctx.call_enclosed("inner", PyValue::None);
            assert!(
                matches!(inner, Err(Fault::Transient { site: "cr3_write" })),
                "{inner:?}"
            );
            // colorsys is outside `outer`'s view.
            assert!(ctx.lb_mut().check_invoke("colorsys").is_err());
            Ok(PyValue::Int(1))
        });
        py.import_module("colorsys").unwrap();
        py.declare_enclosure("outer", "plotlib.outer", &[], "none")
            .unwrap();
        py.declare_enclosure("inner", "numpy.inner", &[], "none")
            .unwrap();
        let out = py.call_enclosed("outer", PyValue::None).unwrap();
        assert_eq!(out, PyValue::Int(1));
        assert_eq!(py.lb().current_env(), TRUSTED_ENV);
        let c = py.lb().telemetry().counters();
        assert_eq!(c.prologs, c.epilogs);
    }

    #[test]
    fn failed_metadata_round_trip_returns_to_the_enclosure() {
        // At these seeds the plan's one fault lands on the `Execute` back
        // from the first metadata round trip.
        for seed in [8, 14, 22] {
            let mut py = setup(Backend::Vtx, MetadataMode::CoLocated);
            let secret = py.alloc_in("secret", &[9; 8]).unwrap();
            py.register_fn("plotlib.render", move |ctx, _arg| {
                let plan = InjectionPlan::new(seed, 500_000)
                    .with_sites(&[InjectionSite::Cr3Write])
                    .with_budget(1);
                ctx.lb_mut().clock_mut().arm_injection(plan);
                let read = ctx.read(secret, 0, 1);
                assert_eq!(ctx.lb().clock().injection().unwrap().fired(), 1);
                assert_ne!(ctx.lb().current_env(), TRUSTED_ENV);
                assert!(ctx.write(secret, 0, &[0]).is_err(), "read-only share");
                assert_eq!(read?, vec![9]);
                Ok(PyValue::None)
            });
            py.declare_enclosure("plot", "plotlib.render", &[], "secret: R, none")
                .unwrap();
            py.call_enclosed("plot", PyValue::None).unwrap();
            py.lb_mut().clock_mut().disarm_injection();
            assert_eq!(py.lb().load(secret, 1).unwrap(), vec![9], "seed {seed}");
            assert_eq!(py.lb().current_env(), TRUSTED_ENV);
        }
    }

    #[test]
    fn out_of_bounds_object_access_rejected() {
        let mut py = setup(Backend::Baseline, MetadataMode::CoLocated);
        let obj = py.alloc_in("secret", &[0; 8]).unwrap();
        py.register_fn("secret.touch", move |ctx, _| {
            assert!(ctx.read(obj, 4, 8).is_err());
            assert!(ctx.write(obj, 8, &[1]).is_err());
            Ok(PyValue::None)
        });
        py.call("secret.touch", PyValue::None).unwrap();
    }

    #[test]
    fn wrapped_offsets_are_out_of_bounds() {
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let mut py = setup(backend, MetadataMode::CoLocated);
            let obj = py.alloc_in("secret", &[7; 8]).unwrap();
            let meta = py.obj(obj).unwrap().meta;
            let before = py.lb().load(meta, HEADER_BYTES + 8).unwrap();
            py.register_fn("plotlib.render", move |ctx, _| {
                // `off + len` wraps to 1 or 7: inside the object if unchecked.
                for off in [u64::MAX, u64::MAX - 6] {
                    let read = ctx.read(obj, off, 8);
                    assert!(matches!(read, Err(Fault::Init(_))), "{read:?}");
                    let write = ctx.write(obj, off, &[1; 8]);
                    assert!(matches!(write, Err(Fault::Init(_))), "{write:?}");
                }
                Ok(PyValue::Bytes(ctx.read(obj, 0, 8)?))
            });
            py.declare_enclosure("plot", "plotlib.render", &[], "secret: RW, none")
                .unwrap();
            let out = py.call_enclosed("plot", PyValue::None).unwrap();
            assert_eq!(out.as_bytes().unwrap(), vec![7; 8], "{backend}");
            assert_eq!(py.refcount(obj).unwrap(), 1, "{backend}");
            let after = py.lb().load(meta, HEADER_BYTES + 8).unwrap();
            assert_eq!(after, before, "{backend}: header and data unchanged");
        }
    }
}
