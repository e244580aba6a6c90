//! The Go runtime extended for enclosures: function registry, enclosure
//! invocation, allocator integration, scheduler loop, and the trusted GC.

use std::sync::Arc;

use enclosure_kernel::Kernel;
use enclosure_support::IdMap;
use enclosure_telemetry::SpanScope;
use enclosure_vmem::Addr;
use litterbox::{Backend, EnvContext, Fault, GatewayMode, LitterBox, TRUSTED_ENV};

use crate::alloc::SpanAllocator;
use crate::compile::compile;
use crate::link::{ElfImage, LinkedEnclosure, Linker};
use crate::sched::{ChanId, GoroutineFn, GoroutineId, Recv, SchedSizes, Scheduler, Step};
use crate::source::GoSource;
use crate::stack::SplitStack;
use crate::value::GoValue;

/// Simulated cost of visiting one live object during GC mark.
const GC_NS_PER_OBJECT: u64 = 30;

/// Package label for scheduler-quantum telemetry spans: each quantum is
/// a span named after its goroutine, scoped to this pseudo-package so
/// attribution reports can tell scheduler residence apart from
/// enclosure calls.
pub const GO_SCHED_PKG: &str = "go.sched";

/// Registered function bodies are `Fn`, not `FnMut`: like real Go
/// functions they must be reentrant (recursion, nested enclosure calls).
/// Per-call state belongs on the stack (`GoCtx::stack_alloc`) or in
/// simulated memory. `Send + Sync` so a whole runtime can move across
/// the fleet's worker threads (shared captures use `Arc`-based cells).
type FnBox = Arc<dyn Fn(&mut GoCtx<'_>, GoValue) -> Result<GoValue, Fault> + Send + Sync>;

/// A Go program under construction: sources waiting to be compiled,
/// linked, and loaded.
#[derive(Debug, Default)]
pub struct GoProgram {
    sources: Vec<GoSource>,
}

impl GoProgram {
    /// An empty program.
    #[must_use]
    pub fn new() -> GoProgram {
        GoProgram::default()
    }

    /// Adds a package source.
    pub fn add_source(&mut self, src: GoSource) -> &mut GoProgram {
        self.sources.push(src);
        self
    }

    /// Compiles, links, loads, and initializes the program.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for compile-time policy errors or link/init
    /// failures.
    pub fn build(&self, backend: Backend) -> Result<GoRuntime, Fault> {
        self.build_with_parts(backend, Kernel::new())
    }

    /// Like [`GoProgram::build`] with a custom kernel (e.g.
    /// [`Kernel::with_demo_home`]).
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for compile-time policy errors or link/init
    /// failures.
    pub fn build_with_parts(&self, backend: Backend, kernel: Kernel) -> Result<GoRuntime, Fault> {
        let objects: Vec<_> = self.sources.iter().map(compile).collect::<Result<_, _>>()?;
        let mut lb = LitterBox::with_parts(backend, kernel);
        let (image, prog) = Linker::new().link(&objects, &mut lb)?;
        lb.init(prog)?;
        let runtime_callsite = image
            .symbol("runtime.callsite")
            .expect("linker always emits the runtime call-site");
        let sched_pkg: Arc<str> = GO_SCHED_PKG.into();
        Ok(GoRuntime {
            lb,
            image,
            functions: IdMap::default(),
            allocator: SpanAllocator::new(),
            sched: Scheduler::default(),
            pkg_stack: vec!["main".to_owned()],
            stack: SplitStack::new(),
            runtime_callsite,
            gc_cycles: 0,
            drain_scope: SpanScope::new("reactor.drain", Arc::clone(&sched_pkg), TRUSTED_ENV.0),
            sched_pkg,
        })
    }
}

/// The loaded program: machine + image + runtime services.
pub struct GoRuntime {
    lb: LitterBox,
    image: ElfImage,
    functions: IdMap<String, FnBox>,
    allocator: SpanAllocator,
    sched: Scheduler,
    pkg_stack: Vec<String>,
    stack: SplitStack,
    runtime_callsite: Addr,
    gc_cycles: u64,
    /// [`GO_SCHED_PKG`], the package every quantum span is charged to.
    sched_pkg: Arc<str>,
    /// The scope of the reactor's forced-drain span; its environment is
    /// set at each drain.
    drain_scope: SpanScope,
}

impl std::fmt::Debug for GoRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoRuntime")
            .field("backend", &self.lb.backend())
            .field("functions", &self.functions.len())
            .field("goroutines", &self.sched.goroutines.len())
            .finish_non_exhaustive()
    }
}

impl GoRuntime {
    /// Registers the body of `pkg.Func`. Bodies receive a [`GoCtx`] and a
    /// [`GoValue`] argument.
    pub fn register_fn(
        &mut self,
        name: &str,
        f: impl Fn(&mut GoCtx<'_>, GoValue) -> Result<GoValue, Fault> + Send + Sync + 'static,
    ) {
        self.functions.insert(name.to_owned(), Arc::new(f));
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

    /// The linked image.
    #[must_use]
    pub fn image(&self) -> &ElfImage {
        &self.image
    }

    /// Completed GC cycles.
    #[must_use]
    pub fn gc_cycles(&self) -> u64 {
        self.gc_cycles
    }

    /// A linked symbol's address.
    ///
    /// # Panics
    ///
    /// Panics on unknown symbols (program structure, not input).
    #[must_use]
    pub fn global_addr(&self, symbol: &str) -> Addr {
        self.image
            .symbol(symbol)
            .unwrap_or_else(|| panic!("unknown symbol '{symbol}'"))
    }

    /// A linked enclosure by name.
    #[must_use]
    pub fn enclosure(&self, name: &str) -> Option<&LinkedEnclosure> {
        self.image.enclosures().iter().find(|e| e.name == name)
    }

    /// Runs every registered `pkg.init` function in dependence order
    /// (dependencies first), as the Go runtime does at startup. Packages
    /// whose import was tagged with an enclosure policy run their init
    /// *inside* that enclosure (§5.1) — so an import-time payload is
    /// already contained.
    ///
    /// # Errors
    ///
    /// The first fault any init raises.
    pub fn run_package_inits(&mut self) -> Result<(), Fault> {
        for pkg in litterbox::deps::load_order(self.image.graph()) {
            let func = format!("{pkg}.init");
            if !self.functions.contains_key(&func) {
                continue;
            }
            let init_enclosure = format!("__init_{pkg}");
            if self.enclosure(&init_enclosure).is_some() {
                self.call_enclosed(&init_enclosure, GoValue::Unit)?;
            } else {
                self.call(&func, GoValue::Unit)?;
            }
        }
        Ok(())
    }

    /// Calls `pkg.Func` from the top level (trusted environment).
    ///
    /// # Errors
    ///
    /// Any [`Fault`] the body raises; [`Fault::ExecDenied`] if the active
    /// view lacks `X` on the callee's package.
    pub fn call(&mut self, func: &str, arg: GoValue) -> Result<GoValue, Fault> {
        GoCtx { rt: self }.call(func, arg)
    }

    /// Invokes the enclosure `name`: Prolog, entry function, Epilog.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] from the switch or the body.
    pub fn call_enclosed(&mut self, name: &str, arg: GoValue) -> Result<GoValue, Fault> {
        GoCtx { rt: self }.call_enclosed(name, arg)
    }

    /// Creates a channel with the given capacity (min 1).
    pub fn make_chan(&mut self, cap: usize) -> ChanId {
        self.sched.make_chan(cap)
    }

    /// Frees a channel and any values still queued on it. Its creator
    /// drops it once no goroutine can touch it again; later operations
    /// on `ch` fault as on an unknown channel.
    pub fn drop_chan(&mut self, ch: ChanId) {
        self.sched.drop_chan(ch);
    }

    /// Entry counts of the scheduler's goroutine and channel tables.
    #[must_use]
    pub fn sched_sizes(&self) -> SchedSizes {
        self.sched.sizes()
    }

    /// Spawns a goroutine in the trusted environment.
    pub fn spawn(
        &mut self,
        name: &str,
        f: impl FnMut(&mut GoCtx<'_>) -> Result<Step, Fault> + Send + 'static,
    ) -> GoroutineId {
        self.spawn_in(name, EnvContext::trusted(), Box::new(f))
    }

    /// Queues goroutine `name` to run in `ctx`, with the scope of its
    /// quantum spans built once, here.
    fn spawn_in(&mut self, name: &str, ctx: EnvContext, f: GoroutineFn) -> GoroutineId {
        let scope = SpanScope::new(name, Arc::clone(&self.sched_pkg), ctx.env().0);
        self.sched.spawn(scope, ctx, f)
    }

    /// Spawns a goroutine that runs entirely inside `enclosure`'s
    /// environment (the FastHTTP pattern: "we create and run the server
    /// in an enclosure", §6.2).
    ///
    /// # Errors
    ///
    /// [`Fault::UnknownEnclosure`]-style init fault for unknown names.
    pub fn spawn_enclosed(
        &mut self,
        name: &str,
        enclosure: &str,
        f: impl FnMut(&mut GoCtx<'_>) -> Result<Step, Fault> + Send + 'static,
    ) -> Result<GoroutineId, Fault> {
        let enc = self
            .enclosure(enclosure)
            .ok_or_else(|| Fault::Init(format!("unknown enclosure '{enclosure}'")))?;
        let env = litterbox::EnvId(enc.id.0);
        Ok(self.spawn_in(name, EnvContext::in_env(env), Box::new(f)))
    }

    /// An `Execute` that survives injected faults: the scheduler must
    /// make progress for the rest of the program to stay available, so
    /// a transient failure is retried uninjected
    /// ([`LitterBox::retry_uninjected`]). Real faults still propagate.
    fn execute(&mut self, ctx: &mut EnvContext) -> Result<(), Fault> {
        let cs = self.runtime_callsite;
        self.lb.retry_uninjected(|lb| lb.execute(ctx, cs))
    }

    /// Runs the scheduler until every goroutine completes, then frees
    /// their slots.
    ///
    /// Each quantum runs in its goroutine's protection context; context
    /// changes go through LitterBox's `Execute` hook, so an enclosed
    /// goroutine stays enclosed across preemption (§5.1). Injected
    /// transient faults at the `Execute` boundary are contained (retried
    /// with injection suspended) rather than aborting the whole
    /// scheduler.
    ///
    /// Every quantum is attributed to its goroutine's telemetry track
    /// and bracketed in a `go.sched` span, so simulated nanoseconds
    /// split per goroutine and per environment across preemption and
    /// `Execute` handoffs; the reschedule switch itself is charged to
    /// the goroutine being scheduled in. A goroutine's track is its
    /// slot in this run plus 1 (track 0,
    /// [`enclosure_telemetry::MAIN_TRACK`], is the driver's), so
    /// repeated runs of the same goroutine set reuse their tracks.
    ///
    /// # Errors
    ///
    /// The first [`Fault`] any goroutine raises, or a deadlock fault when
    /// every runnable goroutine spins without progress.
    pub fn run_scheduler(&mut self) -> Result<(), Fault> {
        let mut idle_quanta = 0usize;
        loop {
            let Some(slot) = self.sched.runq.pop_front() else {
                if self.sched.parked.is_empty() {
                    break;
                }
                // Every remaining goroutine is parked on the reactor:
                // force a drain flush and wake the completed set.
                self.drain_for_parked()?;
                continue;
            };
            let gid = self.sched.id_of(slot);
            let mut g = self.sched.goroutines[slot]
                .take()
                .expect("queued goroutine exists");
            {
                let clock = self.lb.clock_mut();
                let now = clock.now_ns();
                let rec = clock.recorder_mut();
                rec.switch_track(now, slot as u64 + 1, &g.scope.enclosure);
                rec.begin_span(now, &g.scope);
            }
            if g.ctx.env() != self.lb.current_env() {
                self.lb
                    .clock_mut()
                    .record(enclosure_telemetry::Event::Reschedule {
                        goroutine: gid,
                        to_env: g.ctx.env().0,
                    });
                if let Err(fault) = self.execute(&mut g.ctx.clone()) {
                    self.end_quantum_span();
                    self.switch_to_main_track();
                    return Err(fault);
                }
            }
            self.sched.progress = false;
            let before_ns = self.lb.now_ns();
            let step = {
                let mut ctx = GoCtx { rt: self };
                (g.f)(&mut ctx)
            };
            // Quantum boundary: flush the batched syscall gateway while
            // the goroutine's environment (and its go.sched span) is
            // still current, so the whole quantum's syscalls share one
            // charged crossing attributed to this goroutine.
            let flushed = self.flush_quantum_batch();
            let step = step.and_then(|s| flushed.map(|()| s));
            // Park/wake bookkeeping nests inside the quantum's go.sched
            // span: a parking goroutine records its park here, and any
            // parked peers whose completions this quantum's flush posted
            // are woken before the span closes.
            if let Ok(Step::Park(token)) = step {
                if !self.lb.batch_is_complete(token) {
                    self.lb
                        .clock_mut()
                        .record(enclosure_telemetry::Event::GoPark {
                            goroutine: gid,
                            token: token.seq(),
                        });
                }
            }
            self.wake_parked();
            self.end_quantum_span();
            let step = match step {
                Ok(step) => step,
                Err(fault) => return Err(self.abort(fault)),
            };
            let progressed = self.sched.progress || self.lb.now_ns() != before_ns;
            match step {
                Step::Done => {
                    idle_quanta = 0;
                }
                Step::Park(token) => {
                    self.sched.goroutines[slot] = Some(g);
                    if self.lb.batch_is_complete(token) {
                        // The flush above already posted this token's
                        // completion: skip the park, stay runnable.
                        self.sched.runq.push_back(slot);
                    } else {
                        self.sched.parked.push((slot, token));
                    }
                    idle_quanta = 0;
                }
                Step::Yield => {
                    self.sched.goroutines[slot] = Some(g);
                    self.sched.runq.push_back(slot);
                    if progressed {
                        idle_quanta = 0;
                    } else {
                        idle_quanta += 1;
                        if idle_quanta > 2 * self.sched.pending() + 4 {
                            if self.sched.parked.is_empty() {
                                let deadlock = Fault::Init(format!(
                                    "scheduler deadlock: {} goroutines blocked without progress",
                                    self.sched.pending()
                                ));
                                return Err(self.abort(deadlock));
                            }
                            // The runnable set is spinning on goroutines
                            // parked in the reactor: drain it instead of
                            // declaring deadlock.
                            self.drain_for_parked()?;
                            idle_quanta = 0;
                        }
                    }
                }
            }
        }
        if self.lb.current_env() != TRUSTED_ENV {
            self.execute(&mut EnvContext::trusted())?;
        }
        self.switch_to_main_track();
        self.sched.retire_finished();
        Ok(())
    }

    /// Ends a failed scheduler run: back to the trusted context
    /// `run_scheduler` was called from, and to the main track. Returns the fault to
    /// surface: the restore's own if it failed, else `fault`.
    fn abort(&mut self, fault: Fault) -> Fault {
        let restore = self.execute(&mut EnvContext::trusted());
        self.switch_to_main_track();
        restore.err().unwrap_or(fault)
    }

    /// Flushes the batched syscall gateway at the quantum boundary —
    /// the designated flush point of [`GatewayMode::Batched`]. In
    /// [`GatewayMode::Async`] the batch instead accumulates across
    /// quanta: the switch barriers, the idle drain, and explicit
    /// flushes bound its lifetime. A transient whole-flush fault (an
    /// injected lost crossing) is retried uninjected
    /// ([`LitterBox::retry_uninjected`]): the scheduler must drain the
    /// batch for the rest of the program to make progress, and the
    /// retry services every queued entry exactly once.
    fn flush_quantum_batch(&mut self) -> Result<(), Fault> {
        if self.lb.gateway() == GatewayMode::Async || self.lb.batch_pending() == 0 {
            return Ok(());
        }
        self.lb
            .retry_uninjected(LitterBox::batch_flush_quantum)
            .map(drop)
    }

    /// Moves every parked goroutine whose completion has been posted
    /// back onto the run queue (in park order), recording a `GoWake`
    /// per woken goroutine. Returns how many woke.
    fn wake_parked(&mut self) -> usize {
        let mut woken = 0;
        let mut i = 0;
        while i < self.sched.parked.len() {
            let (slot, token) = self.sched.parked[i];
            if self.lb.batch_is_complete(token) {
                self.sched.parked.remove(i);
                let goroutine = self.sched.id_of(slot);
                self.lb
                    .clock_mut()
                    .record(enclosure_telemetry::Event::GoWake {
                        goroutine,
                        token: token.seq(),
                    });
                self.sched.runq.push_back(slot);
                self.sched.progress = true;
                woken += 1;
            } else {
                i += 1;
            }
        }
        woken
    }

    /// The reactor's forced drain: when the runnable set is empty (or
    /// spinning) and goroutines are parked, flush the gateway and wake
    /// the completed set. Runs inside its own `go.sched`-scoped span so
    /// park/wake telemetry stays well-nested. A drain that wakes no one is a reactor stall —
    /// the parked tokens can never complete — and faults rather than
    /// spinning forever.
    fn drain_for_parked(&mut self) -> Result<(), Fault> {
        self.drain_scope.env = self.lb.current_env().0;
        {
            let clock = self.lb.clock_mut();
            let now = clock.now_ns();
            clock.recorder_mut().begin_span(now, &self.drain_scope);
        }
        let flushed = self.lb.retry_uninjected(LitterBox::batch_flush_drain);
        let woken = self.wake_parked();
        self.end_quantum_span();
        flushed?;
        if woken == 0 {
            let stall = Fault::Init(format!(
                "reactor stall: {} goroutines parked on completions that never arrive",
                self.sched.parked.len()
            ));
            return Err(self.abort(stall));
        }
        Ok(())
    }

    /// Closes the telemetry span bracketing the current quantum.
    fn end_quantum_span(&mut self) {
        let clock = self.lb.clock_mut();
        let now = clock.now_ns();
        clock.recorder_mut().end_span(now);
    }

    /// Returns telemetry attribution to the main/harness track (between
    /// scheduler runs, simulated time belongs to the driver).
    fn switch_to_main_track(&mut self) {
        let clock = self.lb.clock_mut();
        let now = clock.now_ns();
        clock
            .recorder_mut()
            .switch_track(now, enclosure_telemetry::MAIN_TRACK, "main");
    }

    /// Runs a stop-the-world GC cycle in the trusted environment
    /// ("garbage collection needs full access to the program's
    /// resources", §5.1). Returns the number of live objects visited.
    ///
    /// # Errors
    ///
    /// Propagates `Execute` faults.
    pub fn run_gc(&mut self) -> Result<u64, Fault> {
        let mut ctx = EnvContext::trusted();
        self.execute(&mut ctx)?;
        let live = self.allocator.live_count();
        self.lb.clock_mut().advance(live * GC_NS_PER_OBJECT);
        self.lb
            .clock_mut()
            .record(enclosure_telemetry::Event::GcPause {
                ns: live * GC_NS_PER_OBJECT,
                live,
            });
        self.gc_cycles += 1;
        self.execute(&mut ctx)?;
        Ok(live)
    }
}

/// The execution context Go function bodies and goroutines receive.
pub struct GoCtx<'a> {
    pub(crate) rt: &'a mut GoRuntime,
}

impl std::fmt::Debug for GoCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoCtx")
            .field("package", &self.current_package())
            .finish_non_exhaustive()
    }
}

impl<'a> GoCtx<'a> {
    /// A harness-side context over the runtime (trusted environment):
    /// lets drivers perform channel operations after a scheduler run.
    pub fn harness(rt: &'a mut GoRuntime) -> GoCtx<'a> {
        GoCtx { rt }
    }
}

impl GoCtx<'_> {
    /// The machine (read).
    #[must_use]
    pub fn lb(&self) -> &LitterBox {
        &self.rt.lb
    }

    /// The machine (write): checked loads/stores and `sys_*` calls.
    pub fn lb_mut(&mut self) -> &mut LitterBox {
        &mut self.rt.lb
    }

    /// The package whose code is currently executing (tops the call
    /// stack; `mallocgc` tags allocations with it, §5.1).
    #[must_use]
    pub fn current_package(&self) -> &str {
        self.rt.pkg_stack.last().map_or("main", String::as_str)
    }

    /// A linked symbol's address.
    ///
    /// # Panics
    ///
    /// Panics on unknown symbols.
    #[must_use]
    pub fn global_addr(&self, symbol: &str) -> Addr {
        self.rt.global_addr(symbol)
    }

    /// Charges `ns` of workload compute to the simulated clock.
    pub fn compute(&mut self, ns: u64) {
        self.rt.lb.clock_mut().advance(ns);
    }

    /// Allocates in the current package's arena (`mallocgc` with the
    /// caller's package identifier, §5.1).
    ///
    /// # Errors
    ///
    /// Propagates allocator/transfer faults.
    pub fn malloc(&mut self, size: u64) -> Result<Addr, Fault> {
        let pkg = self.current_package().to_owned();
        self.rt.allocator.alloc(&mut self.rt.lb, &pkg, size)
    }

    /// Frees an allocation.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for invalid frees.
    pub fn free(&mut self, addr: Addr) -> Result<(), Fault> {
        self.rt.allocator.free(addr)
    }

    /// Calls `pkg.Func`, checking the active view's `X` right on `pkg`
    /// first (every cross-package invocation is mediated).
    ///
    /// # Errors
    ///
    /// [`Fault::ExecDenied`] without the `X` right; [`Fault::Init`] for
    /// unregistered functions.
    pub fn call(&mut self, func: &str, arg: GoValue) -> Result<GoValue, Fault> {
        let (pkg, _) = func
            .split_once('.')
            .ok_or_else(|| Fault::Init(format!("'{func}' is not of the form pkg.Func")))?;
        self.rt.lb.check_invoke(pkg)?;
        let f = self
            .rt
            .functions
            .get(func)
            .cloned()
            .ok_or_else(|| Fault::Init(format!("unregistered function '{func}'")))?;
        self.rt.lb.clock_mut().charge_call();
        self.rt.pkg_stack.push(pkg.to_owned());
        let result = f(self, arg);
        self.rt.pkg_stack.pop();
        result
    }

    /// Invokes the enclosure `name` from the current environment
    /// (dynamic nesting applies). However the call ends, the caller
    /// resumes in its own environment: a failed switch back unwinds to
    /// the caller's frame ([`LitterBox::leave`]), never past it.
    ///
    /// # Errors
    ///
    /// Switch faults ([`Fault::Escalation`], [`Fault::UnverifiedCallsite`])
    /// or any fault from the body, which stays the root cause when the
    /// switch back fails too.
    pub fn call_enclosed(&mut self, name: &str, arg: GoValue) -> Result<GoValue, Fault> {
        let enc = self
            .rt
            .enclosure(name)
            .ok_or_else(|| Fault::Init(format!("unknown enclosure '{name}'")))?;
        let (id, callsite, entry) = (enc.id, enc.callsite, enc.entry.clone());
        // Split stacks (§5.1): the closure gets a fresh segment owned by
        // its entry package; the caller's frames stay hidden. The segment
        // pops however the call ends, so a failed switch cannot leave a
        // frame owned by the target package on the stack.
        let entry_pkg = entry
            .split_once('.')
            .map_or(entry.as_str(), |(pkg, _)| pkg)
            .to_owned();
        self.rt.stack.push_segment(&mut self.rt.lb, &entry_pkg)?;
        let result = self.rt.lb.prolog(id, callsite).and_then(|token| {
            let result = self.call(&entry, arg);
            self.rt.lb.leave(token, result)
        });
        self.rt.stack.pop_segment()?;
        result
    }

    /// Allocates frame-local storage on the current split-stack segment
    /// — inside an enclosure that segment belongs to the entry package;
    /// outside, to the hidden `go.runtime` package, so enclosed code can
    /// never scrape the caller's frames.
    ///
    /// # Errors
    ///
    /// Segment overflow or transfer faults.
    pub fn stack_alloc(&mut self, size: u64) -> Result<Addr, Fault> {
        self.rt.stack.frame_alloc(&mut self.rt.lb, size)
    }

    /// Spawns a goroutine inheriting the current protection environment
    /// (§5.1: inheritance prevents escalation via `go func(){}`).
    pub fn spawn(
        &mut self,
        name: &str,
        f: impl FnMut(&mut GoCtx<'_>) -> Result<Step, Fault> + Send + 'static,
    ) -> GoroutineId {
        let env = self.rt.lb.current_env();
        self.rt.spawn_in(name, EnvContext::in_env(env), Box::new(f))
    }

    /// Creates a channel.
    pub fn make_chan(&mut self, cap: usize) -> ChanId {
        self.rt.sched.make_chan(cap)
    }

    /// Non-blocking channel send; `false` means full (yield and retry).
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for unknown/closed channels.
    pub fn chan_send(&mut self, ch: ChanId, value: GoValue) -> Result<bool, Fault> {
        self.rt.sched.try_send(ch, value)
    }

    /// Non-blocking channel receive.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for unknown channels.
    pub fn chan_recv(&mut self, ch: ChanId) -> Result<Recv, Fault> {
        self.rt.sched.try_recv(ch)
    }

    /// Closes a channel.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for unknown channels.
    pub fn chan_close(&mut self, ch: ChanId) -> Result<(), Fault> {
        self.rt.sched.close_chan(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_vmem::Access;
    use litterbox::{InjectionPlan, InjectionSite};

    fn figure1_program() -> GoProgram {
        let mut p = GoProgram::new();
        p.add_source(GoSource::new("os").loc(3000));
        p.add_source(GoSource::new("img").loc(800));
        p.add_source(GoSource::new("libfx").imports(&["img"]).loc(160_000));
        p.add_source(
            GoSource::new("secrets")
                .imports(&["os"])
                .global("original", 64)
                .loc(50),
        );
        p.add_source(
            GoSource::new("main")
                .imports(&["img", "libfx", "secrets", "os"])
                .global("privateKey", 32)
                .enclosure_with_uses("rcl", "libfx.Invert", &["img"], "secrets: R, none"),
        );
        p
    }

    fn figure1_runtime(backend: Backend) -> GoRuntime {
        let mut rt = figure1_program().build(backend).unwrap();
        rt.register_fn("libfx.Invert", |ctx, arg: GoValue| {
            // Read the "image" from secrets (read-only share), invert it,
            // return the result.
            let n = arg.as_int()?;
            let secret_addr = ctx.global_addr("secrets.original");
            let pixel = ctx.lb().load_u64(secret_addr)?;
            ctx.compute(100);
            Ok(GoValue::Int(!pixel & 0xff ^ n))
        });
        rt
    }

    #[test]
    fn figure1_enclosure_runs_and_reads_secret() {
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut rt = figure1_runtime(backend);
            let secret_addr = rt.global_addr("secrets.original");
            rt.lb_mut().store_u64(secret_addr, 0xf0).unwrap();
            let out = rt.call_enclosed("rcl", GoValue::Int(0)).unwrap();
            assert_eq!(out.as_int().unwrap(), 0x0f, "{backend}");
        }
    }

    #[test]
    fn enclosed_code_cannot_touch_main_private_key() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        rt.register_fn("libfx.Invert", |ctx, _arg| {
            let key = ctx.global_addr("main.privateKey");
            ctx.lb().load_u64(key).map(GoValue::Int)
        });
        let err = rt.call_enclosed("rcl", GoValue::Unit).unwrap_err();
        assert!(matches!(err, Fault::Memory(_)), "{err}");
        // And the runtime is back in the trusted environment.
        let key = rt.global_addr("main.privateKey");
        assert!(rt.lb().load_u64(key).is_ok());
    }

    /// `rcl` calling `rcl`, whose inner switch back is injected to fail:
    /// the outer body (arg 0) catches the fault and must still be
    /// confined to `rcl`'s view.
    fn nested_rcl_runtime(backend: Backend) -> GoRuntime {
        let site = switch_site(backend);
        let mut rt = figure1_program().build(backend).unwrap();
        rt.register_fn("libfx.Invert", move |ctx, arg: GoValue| {
            if arg.as_int()? == 1 {
                ctx.lb_mut()
                    .clock_mut()
                    .arm_injection(InjectionPlan::once(site));
                return Ok(GoValue::Unit);
            }
            let inner = ctx.call_enclosed("rcl", GoValue::Int(1));
            assert!(matches!(inner, Err(Fault::Transient { .. })), "{inner:?}");
            assert_eq!(ctx.lb().current_env(), litterbox::EnvId(1));
            let key = ctx.global_addr("main.privateKey");
            assert!(ctx.lb().load_u64(key).is_err(), "rcl's view excludes main");
            Ok(GoValue::Unit)
        });
        rt
    }

    fn switch_site(backend: Backend) -> InjectionSite {
        if backend == Backend::Mpk {
            InjectionSite::Wrpkru
        } else {
            InjectionSite::Cr3Write
        }
    }

    #[test]
    fn failed_nested_switch_back_keeps_the_outer_view() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut rt = nested_rcl_runtime(backend);
            rt.call_enclosed("rcl", GoValue::Int(0)).unwrap();
            assert_eq!(rt.lb().current_env(), TRUSTED_ENV, "{backend}");
            let c = rt.lb().telemetry().counters();
            assert_eq!(c.prologs, c.epilogs, "{backend}");
        }
    }

    #[test]
    fn failed_nested_switch_back_in_an_enclosed_goroutine_keeps_its_view() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut rt = nested_rcl_runtime(backend);
            rt.spawn_enclosed("rcl-worker", "rcl", |ctx| {
                let inner = ctx.call_enclosed("rcl", GoValue::Int(1));
                assert!(matches!(inner, Err(Fault::Transient { .. })), "{inner:?}");
                assert_eq!(ctx.lb().current_env(), litterbox::EnvId(1));
                let key = ctx.global_addr("main.privateKey");
                assert!(ctx.lb().load_u64(key).is_err(), "rcl's view excludes main");
                Ok(Step::Done)
            })
            .unwrap();
            rt.run_scheduler().unwrap();
            assert_eq!(rt.lb().current_env(), TRUSTED_ENV, "{backend}");
            let telemetry = rt.lb().telemetry();
            let c = telemetry.counters();
            assert_eq!(c.prologs, c.epilogs, "{backend}");
            assert_eq!(telemetry.span_depth(), 0, "{backend}");
        }
    }

    #[test]
    fn enclosed_code_cannot_write_secrets() {
        let mut rt = figure1_program().build(Backend::Vtx).unwrap();
        rt.register_fn("libfx.Invert", |ctx, _arg| {
            let addr = ctx.global_addr("secrets.original");
            ctx.lb_mut().store_u64(addr, 0).map(|()| GoValue::Unit)
        });
        assert!(matches!(
            rt.call_enclosed("rcl", GoValue::Unit),
            Err(Fault::Memory(_))
        ));
    }

    #[test]
    fn enclosed_code_cannot_invoke_foreign_functions() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        rt.register_fn("os.ReadFile", |_ctx, _arg| Ok(GoValue::Unit));
        rt.register_fn("libfx.Invert", |ctx, _arg| {
            ctx.call("os.ReadFile", GoValue::Unit)
        });
        let err = rt.call_enclosed("rcl", GoValue::Unit).unwrap_err();
        assert!(matches!(err, Fault::ExecDenied { .. }), "{err}");
    }

    #[test]
    fn enclosed_syscalls_fault_under_none_filter() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        rt.register_fn("libfx.Invert", |ctx, _arg| {
            match ctx.lb_mut().sys_getuid() {
                Err(e) if e.is_fault() => Ok(GoValue::Str("denied".into())),
                other => Ok(GoValue::Str(format!("allowed?! {other:?}"))),
            }
        });
        let out = rt.call_enclosed("rcl", GoValue::Unit).unwrap();
        assert_eq!(out.as_str().unwrap(), "denied");
    }

    #[test]
    fn mallocs_inside_enclosure_land_in_callee_arena() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        rt.register_fn("libfx.Invert", |ctx, _arg| {
            let buf = ctx.malloc(256)?;
            ctx.lb_mut().store_u64(buf, 42)?;
            Ok(GoValue::Ptr(buf))
        });
        let ptr = rt
            .call_enclosed("rcl", GoValue::Unit)
            .unwrap()
            .as_ptr()
            .unwrap();
        // The span belongs to libfx: visible in trusted env too.
        assert_eq!(rt.lb().package_at(ptr), Some("libfx"));
        assert_eq!(rt.lb().load_u64(ptr).unwrap(), 42);
    }

    #[test]
    fn scheduler_runs_producer_consumer_across_environments() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        let ch = rt.make_chan(4);
        let done = rt.make_chan(4);

        // Producer runs inside the rcl enclosure's environment.
        let mut produced = 0u64;
        rt.spawn_enclosed("producer", "rcl", move |ctx| {
            if produced == 5 {
                ctx.chan_close(ch)?;
                return Ok(Step::Done);
            }
            // Enclosed: may read secrets, may not write main.
            let s = ctx.lb().load_u64(ctx.global_addr("secrets.original"))?;
            if ctx.chan_send(ch, GoValue::Int(s + produced))? {
                produced += 1;
            }
            Ok(Step::Yield)
        })
        .unwrap();

        // Consumer runs trusted and tallies into main's global.
        rt.spawn("consumer", move |ctx| match ctx.chan_recv(ch)? {
            Recv::Value(v) => {
                let key = ctx.global_addr("main.privateKey");
                let cur = ctx.lb().load_u64(key)?;
                ctx.lb_mut().store_u64(key, cur + v.as_int()?)?;
                Ok(Step::Yield)
            }
            Recv::Empty => Ok(Step::Yield),
            Recv::Closed => {
                ctx.chan_send(done, GoValue::Bool(true))?;
                Ok(Step::Done)
            }
        });

        let secret_addr = rt.global_addr("secrets.original");
        rt.lb_mut().store_u64(secret_addr, 10).unwrap();
        rt.run_scheduler().unwrap();

        let key = rt.global_addr("main.privateKey");
        // 10+0 + 10+1 + ... + 10+4 = 60.
        assert_eq!(rt.lb().load_u64(key).unwrap(), 60);
        // Environment switches actually happened.
        assert!(rt.lb().stats().wrpkru > 2);
        assert_eq!(rt.lb().current_env(), TRUSTED_ENV);
    }

    /// Each scheduler run starts again from slot 0, so a later
    /// goroutine reports on the track of an earlier one. Its time is
    /// charged under its own name, not the name the track first had.
    #[test]
    fn a_reused_slot_charges_its_own_goroutine() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        for (name, ns) in [("alpha", 1_000), ("beta", 5_000)] {
            rt.spawn(name, move |ctx| {
                ctx.compute(ns);
                Ok(Step::Done)
            });
            rt.run_scheduler().unwrap();
        }
        let costs = rt.lb().telemetry().track_costs();
        let track1: Vec<(&str, u64)> = costs
            .iter()
            .filter(|c| c.track == 1)
            .map(|c| (c.name.as_str(), c.ns))
            .collect();
        assert_eq!(track1, [("alpha", 1_000), ("beta", 5_000)]);
    }

    #[test]
    fn scheduler_detects_deadlock() {
        let mut rt = figure1_program().build(Backend::Baseline).unwrap();
        let ch = rt.make_chan(1);
        rt.spawn("blocked", move |ctx| match ctx.chan_recv(ch)? {
            Recv::Value(_) => Ok(Step::Done),
            _ => Ok(Step::Yield),
        });
        let err = rt.run_scheduler().unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn goroutines_inherit_spawner_environment() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        let result = rt.make_chan(2);
        rt.spawn_enclosed("outer", "rcl", move |ctx| {
            // Child spawned here inherits the enclosure environment.
            ctx.spawn("child", move |ctx| {
                let denied = ctx
                    .lb()
                    .load_u64(ctx.global_addr("main.privateKey"))
                    .is_err();
                ctx.chan_send(result, GoValue::Bool(denied))?;
                Ok(Step::Done)
            });
            Ok(Step::Done)
        })
        .unwrap();
        rt.run_scheduler().unwrap();
        let mut ctx = GoCtx { rt: &mut rt };
        match ctx.chan_recv(result).unwrap() {
            Recv::Value(v) => assert!(v.as_bool().unwrap(), "child was restricted"),
            other => panic!("expected value, got {other:?}"),
        }
    }

    #[test]
    fn gc_runs_trusted_and_counts_live_objects() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        rt.register_fn("libfx.Invert", |ctx, _arg| {
            for _ in 0..10 {
                ctx.malloc(64)?;
            }
            Ok(GoValue::Unit)
        });
        rt.call_enclosed("rcl", GoValue::Unit).unwrap();
        let live = rt.run_gc().unwrap();
        assert_eq!(live, 10);
        assert_eq!(rt.gc_cycles(), 1);
    }

    #[test]
    fn tagged_imports_run_init_inside_an_enclosure() {
        // An import-time payload (the dominant real-world supply-chain
        // attack) is contained by tagging the import.
        let mut p = GoProgram::new();
        p.add_source(GoSource::new("sketchy").loc(5_000).init_enclosed("none"));
        p.add_source(GoSource::new("clean"));
        p.add_source(
            GoSource::new("main")
                .imports(&["sketchy", "clean"])
                .global("token", 8),
        );
        let mut rt = p.build(Backend::Mpk).unwrap();
        // sketchy's init tries to steal main.token and phone home.
        rt.register_fn("sketchy.init", |ctx, _| {
            assert!(
                ctx.lb().load_u64(ctx.global_addr("main.token")).is_err(),
                "enclosed init cannot read main"
            );
            assert!(ctx.lb_mut().sys_socket().is_err(), "and cannot phone home");
            Ok(GoValue::Unit)
        });
        // clean's init runs trusted and initializes state normally.
        rt.register_fn("clean.init", |ctx, _| {
            let token = ctx.global_addr("main.token");
            ctx.lb_mut().store_u64(token, 7)?;
            Ok(GoValue::Unit)
        });
        rt.run_package_inits().unwrap();
        assert_eq!(rt.lb().load_u64(rt.global_addr("main.token")).unwrap(), 7);
    }

    #[test]
    fn init_order_respects_dependencies() {
        let mut p = GoProgram::new();
        p.add_source(GoSource::new("base").global("order", 8));
        p.add_source(GoSource::new("mid").imports(&["base"]));
        p.add_source(GoSource::new("main").imports(&["mid"]));
        let mut rt = p.build(Backend::Baseline).unwrap();
        for (pkg, value) in [("base", 1u64), ("mid", 2), ("main", 3)] {
            let func = format!("{pkg}.init");
            rt.register_fn(&func, move |ctx, _| {
                let addr = ctx.global_addr("base.order");
                let seen = ctx.lb().load_u64(addr)?;
                assert_eq!(seen, value - 1, "deps init first");
                ctx.lb_mut().store_u64(addr, value)?;
                Ok(GoValue::Unit)
            });
        }
        rt.run_package_inits().unwrap();
        assert_eq!(rt.lb().load_u64(rt.global_addr("base.order")).unwrap(), 3);
    }

    #[test]
    fn split_stacks_hide_caller_frames_from_enclosures() {
        let mut rt = figure1_program().build(Backend::Mpk).unwrap();
        // A caller-frame secret on the trusted stack segment.
        let caller_frame = GoCtx { rt: &mut rt }.stack_alloc(64).unwrap();
        rt.lb_mut().store_u64(caller_frame, 0x5ec2e7).unwrap();

        rt.register_fn("libfx.Invert", move |ctx, _arg| {
            // The enclosed closure gets its own segment…
            let own_frame = ctx.stack_alloc(32)?;
            ctx.lb_mut().store_u64(own_frame, 1)?;
            // …and cannot scrape the caller's frames.
            assert!(
                ctx.lb().load_u64(caller_frame).is_err(),
                "caller frames are unmapped inside the enclosure"
            );
            Ok(GoValue::Ptr(own_frame))
        });
        let inner_frame = rt
            .call_enclosed("rcl", GoValue::Unit)
            .unwrap()
            .as_ptr()
            .unwrap();
        // After the Epilog, the enclosure's segment stays pooled under
        // libfx for transfer-free reuse; trusted code can still inspect
        // it, and the next call reuses it without a Transfer.
        assert_eq!(rt.lb().package_at(inner_frame), Some("libfx"));
        let transfers_before = rt.lb().stats().transfers;
        rt.call_enclosed("rcl", GoValue::Unit).unwrap();
        assert_eq!(
            rt.lb().stats().transfers,
            transfers_before,
            "re-entry is transfer-free"
        );
        assert_eq!(rt.lb().load_u64(caller_frame).unwrap(), 0x5ec2e7);
    }

    #[test]
    fn nested_enclosure_segments_are_distinct() {
        let mut rt = figure1_program().build(Backend::Vtx).unwrap();
        rt.register_fn("libfx.Invert", |ctx, arg: GoValue| {
            let depth = arg.as_int()?;
            let frame = ctx.stack_alloc(16)?;
            ctx.lb_mut().store_u64(frame, depth)?;
            if depth == 0 {
                Ok(GoValue::Int(ctx.lb().load_u64(frame)?))
            } else {
                // Re-enter the same enclosure (allowed: equal restriction).
                let inner = ctx.call_enclosed("rcl", GoValue::Int(depth - 1))?;
                // Our own frame is still intact afterwards.
                assert_eq!(ctx.lb().load_u64(frame)?, depth);
                Ok(inner)
            }
        });
        assert_eq!(
            rt.call_enclosed("rcl", GoValue::Int(3))
                .unwrap()
                .as_int()
                .unwrap(),
            0
        );
    }

    #[test]
    fn quantum_boundary_flushes_batches_with_one_crossing_per_quantum() {
        let mut p = GoProgram::new();
        p.add_source(GoSource::new("libfx").loc(1000));
        p.add_source(GoSource::new("main").imports(&["libfx"]).enclosure(
            "rcl",
            "libfx.Invert",
            "proc",
        ));
        let mut rt = p.build(Backend::Vtx).unwrap();
        rt.lb_mut().set_gateway(GatewayMode::Batched);
        let mut rounds = 0u64;
        rt.spawn_enclosed("batcher", "rcl", move |ctx| {
            if rounds == 3 {
                return Ok(Step::Done);
            }
            rounds += 1;
            // Three descriptors per quantum; the scheduler flushes them
            // in one charged crossing at the quantum boundary.
            for _ in 0..3 {
                ctx.lb_mut().batch_submit(1, litterbox::BatchOp::Getuid)?;
            }
            Ok(Step::Yield)
        })
        .unwrap();
        let before = rt.lb().stats().vm_exits;
        rt.run_scheduler().unwrap();
        assert_eq!(rt.lb_mut().batch_pending(), 0, "no quantum leaves a batch");
        let done = rt.lb_mut().batch_take_completions();
        assert_eq!(done.len(), 9);
        assert!(done.iter().all(|c| c.result.is_ok()));
        // 9 syscalls, but only one VM EXIT per non-empty quantum (3).
        assert_eq!(rt.lb().stats().vm_exits - before, 3);
    }

    #[test]
    fn unregistered_function_is_an_init_fault() {
        let mut rt = figure1_program().build(Backend::Baseline).unwrap();
        let err = rt.call("libfx.Missing", GoValue::Unit).unwrap_err();
        assert!(err.to_string().contains("unregistered"));
    }

    #[test]
    fn view_rights_visible_through_runtime() {
        let rt = figure1_runtime(Backend::Mpk);
        let rcl = rt.enclosure("rcl").unwrap();
        assert_eq!(rcl.view["secrets"], Access::R);
        assert_eq!(rcl.view["libfx"], Access::RWX);
    }
}
