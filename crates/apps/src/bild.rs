//! The bild workload (§6.2): "a popular Go GitHub public package for
//! parallel image processing … bild silently drags in over 160K lines of
//! code of unverified origin."
//!
//! The 32-LOC application loads a sensitive image held by `main`,
//! encloses the call to `bild.Invert` with `main: R, none` (read-only
//! view of the image, no syscalls), and checks the result. The workload
//! is "purely computational and memory-intensive": `Invert` allocates the
//! output image and per-row scratch buffers in bild's arena, driving span
//! `Transfer` traffic — the source of LB_MPK's overhead in this row.

use enclosure_gofront::{GoProgram, GoRuntime, GoSource, GoValue};
use enclosure_vmem::Addr;
use litterbox::{Backend, Fault};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct BildConfig {
    /// Image width in pixels (RGBA).
    pub width: u64,
    /// Image height in pixels.
    pub height: u64,
    /// Simulated compute per pixel (invert is one subtract per channel,
    /// vectorized; calibrated so the baseline lands near the paper's
    /// 13.25 ms at 1024×1024).
    pub pixel_ns: u64,
}

impl Default for BildConfig {
    fn default() -> Self {
        BildConfig {
            width: 1024,
            height: 1024,
            pixel_ns: 12,
        }
    }
}

impl BildConfig {
    /// A small configuration for unit tests.
    #[must_use]
    pub fn tiny() -> BildConfig {
        BildConfig {
            width: 64,
            height: 16,
            pixel_ns: 12,
        }
    }

    fn row_bytes(&self) -> u64 {
        self.width * 4
    }
}

/// Result of one inversion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvertRun {
    /// Simulated nanoseconds the run took.
    pub ns: u64,
    /// Pointer to the inverted image (in bild's arena).
    pub output: Addr,
    /// Transfers performed during the run.
    pub transfers: u64,
}

/// The assembled bild application.
#[derive(Debug)]
pub struct BildApp {
    rt: GoRuntime,
    cfg: BildConfig,
    src_image: Addr,
}

impl BildApp {
    /// Builds the application on `backend` and loads the sensitive image
    /// into `main`'s arena.
    ///
    /// # Errors
    ///
    /// Build or allocation faults.
    pub fn new(backend: Backend, cfg: BildConfig) -> Result<BildApp, Fault> {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("imgutil").loc(3_000));
        program.add_source(GoSource::new("parallel").loc(2_500));
        program.add_source(
            GoSource::new("bild")
                .imports(&["imgutil", "parallel"])
                .loc(160_500),
        );
        program.add_source(
            GoSource::new("main")
                .imports(&["bild"])
                .loc(32)
                // `with [main: R, none] func() { bild.Invert(img) }`
                .enclosure("rcl", "bild.Invert", "main: R, none"),
        );
        let mut rt = program.build(backend)?;

        let pixel_ns = cfg.pixel_ns;
        let (width, height) = (cfg.width, cfg.height);
        rt.register_fn("bild.Invert", move |ctx, arg: GoValue| {
            let src = arg.as_ptr()?;
            let row_bytes = width * 4;
            // Output image: one large allocation in bild's arena.
            let dst = ctx.malloc(row_bytes * height)?;
            // Per-row scratch tiles (parallel.Apply working set): various
            // small allocations that populate the arena with spans, freed
            // only when the whole operation completes — the "frequent
            // transfers to populate the arena" of §6.2.
            let mut scratch = Vec::with_capacity(height as usize);
            for row in 0..height {
                // Double-buffered tile (input + output halves), like
                // parallel.Apply's per-worker scratch.
                let tile = ctx.malloc(row_bytes * 2 + 64)?;
                scratch.push(tile);
                let line = ctx.lb().load(src + row * row_bytes, row_bytes)?;
                let inverted: Vec<u8> = line.iter().map(|&b| 255 - b).collect();
                ctx.lb_mut().store(tile, &inverted)?;
                ctx.lb_mut().store(dst + row * row_bytes, &inverted)?;
                ctx.compute(width * pixel_ns);
            }
            for tile in scratch {
                ctx.free(tile)?;
            }
            Ok(GoValue::Ptr(dst))
        });

        rt.register_fn("bild.Grayscale", move |ctx, arg: GoValue| {
            let src = arg.as_ptr()?;
            let row_bytes = width * 4;
            let dst = ctx.malloc(row_bytes * height)?;
            for row in 0..height {
                let line = ctx.lb().load(src + row * row_bytes, row_bytes)?;
                let mut out = vec![0u8; line.len()];
                for (px_out, px) in out.chunks_mut(4).zip(line.chunks(4)) {
                    // ITU-R BT.601 luma, integer approximation.
                    let y =
                        (299 * u32::from(px[0]) + 587 * u32::from(px[1]) + 114 * u32::from(px[2]))
                            / 1000;
                    let y = u8::try_from(y.min(255)).expect("clamped");
                    px_out.copy_from_slice(&[y, y, y, px[3]]);
                }
                ctx.lb_mut().store(dst + row * row_bytes, &out)?;
                ctx.compute(width * pixel_ns);
            }
            Ok(GoValue::Ptr(dst))
        });

        rt.register_fn("bild.FlipH", move |ctx, arg: GoValue| {
            let src = arg.as_ptr()?;
            let row_bytes = width * 4;
            let dst = ctx.malloc(row_bytes * height)?;
            for row in 0..height {
                let line = ctx.lb().load(src + row * row_bytes, row_bytes)?;
                let mut out = vec![0u8; line.len()];
                for x in 0..width as usize {
                    let sx = (width as usize - 1 - x) * 4;
                    out[x * 4..x * 4 + 4].copy_from_slice(&line[sx..sx + 4]);
                }
                ctx.lb_mut().store(dst + row * row_bytes, &out)?;
                ctx.compute(width * pixel_ns / 2);
            }
            Ok(GoValue::Ptr(dst))
        });

        rt.register_fn("bild.BoxBlur", move |ctx, arg: GoValue| {
            let src = arg.as_ptr()?;
            let row_bytes = width * 4;
            let dst = ctx.malloc(row_bytes * height)?;
            // Horizontal-only 3-tap box blur (clamped edges), per row.
            for row in 0..height {
                let line = ctx.lb().load(src + row * row_bytes, row_bytes)?;
                let mut out = vec![0u8; line.len()];
                let w = width as usize;
                for x in 0..w {
                    let left = x.saturating_sub(1);
                    let right = (x + 1).min(w - 1);
                    for c in 0..4 {
                        let sum = u32::from(line[left * 4 + c])
                            + u32::from(line[x * 4 + c])
                            + u32::from(line[right * 4 + c]);
                        out[x * 4 + c] = u8::try_from(sum / 3).expect("mean of u8s");
                    }
                }
                ctx.lb_mut().store(dst + row * row_bytes, &out)?;
                ctx.compute(3 * width * pixel_ns);
            }
            Ok(GoValue::Ptr(dst))
        });

        // bild's own allocation entry point: goroutines have no package
        // call-context, so buffer allocations go through a bild function
        // to land in bild's arena (mallocgc tags by caller package, §5.1).
        rt.register_fn("bild.alloc_buffer", |ctx, arg: GoValue| {
            Ok(GoValue::Ptr(ctx.malloc(arg.as_int()?)?))
        });

        // The sensitive image lives in main's arena; fill it with a
        // recognizable gradient.
        let image_bytes = cfg.row_bytes() * cfg.height;
        let src_image = {
            let ctx_alloc = |rt: &mut GoRuntime| -> Result<Addr, Fault> {
                // Allocate via the runtime on behalf of main.
                rt.call("main.alloc_image", GoValue::Int(image_bytes))?
                    .as_ptr()
                    .map_err(Fault::from)
            };
            rt.register_fn("main.alloc_image", |ctx, arg: GoValue| {
                let size = arg.as_int()?;
                Ok(GoValue::Ptr(ctx.malloc(size)?))
            });
            ctx_alloc(&mut rt)?
        };
        for row in 0..cfg.height {
            let line: Vec<u8> = (0..cfg.row_bytes())
                .map(|i| ((row * 7 + i) % 251) as u8)
                .collect();
            rt.lb_mut()
                .store(src_image + row * cfg.row_bytes(), &line)?;
        }
        Ok(BildApp { rt, cfg, src_image })
    }

    /// The runtime (for assertions and clock control).
    #[must_use]
    pub fn runtime(&self) -> &GoRuntime {
        &self.rt
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut GoRuntime {
        &mut self.rt
    }

    /// Runs an arbitrary bild operation (`"bild.Grayscale"`,
    /// `"bild.FlipH"`, `"bild.BoxBlur"`, …) through a fresh enclosure
    /// using the same `main: R, none` policy. Returns the output pointer.
    ///
    /// The operation runs *enclosed* by routing through `rcl`'s entry:
    /// bild functions call each other freely inside the enclosure (they
    /// share the bild package's `RWX` view). However the op ends, the
    /// runtime is back in the trusted environment.
    ///
    /// # Errors
    ///
    /// Any enclosure fault.
    pub fn run_op(&mut self, op: &'static str) -> Result<Addr, Fault> {
        // Route through the enclosure: Invert's entry is the enclosure
        // boundary; inside, dispatch to the requested op.
        let src = self.src_image;
        self.rt
            .register_fn("bild.Dispatch", move |ctx, arg: GoValue| {
                let op = arg.as_str()?;
                ctx.call(op, GoValue::Ptr(src))
            });
        // bild.Dispatch lives in the bild package, so the rcl enclosure
        // may invoke it.
        let enc = self.rt.enclosure("rcl").expect("rcl exists");
        let (id, callsite) = (enc.id, enc.callsite);
        let token = self.rt.lb_mut().prolog(id, callsite)?;
        let result = self
            .rt
            .call("bild.Dispatch", GoValue::Str(op.to_owned()))
            .and_then(|v| v.as_ptr().map_err(Fault::from));
        self.rt.lb_mut().leave(token, result)
    }

    /// The source image pointer (in `main`'s arena).
    #[must_use]
    pub fn source(&self) -> Addr {
        self.src_image
    }

    /// Runs the inversion *in parallel*: `workers` goroutines spawned
    /// inside the enclosure environment (bild is "a collection of
    /// parallel image processing algorithms"), each inverting a stripe of
    /// rows. Goroutines inherit the enclosure's restrictions (§5.1), so
    /// every worker is confined exactly like the single-threaded path.
    ///
    /// # Errors
    ///
    /// Any worker fault (including scheduler deadlock).
    pub fn run_invert_parallel(&mut self, workers: u64) -> Result<InvertRun, Fault> {
        let cfg = self.cfg;
        let src = self.src_image;
        let t0 = self.rt.lb().now_ns();
        let x0 = self.rt.lb().stats().transfers;
        let row_bytes = cfg.row_bytes();

        // The coordinator runs enclosed and fans rows out to workers it
        // spawns (they inherit its environment).
        let done_ch = self.rt.make_chan(workers.max(1) as usize);
        let result_ch = self.rt.make_chan(1);
        let mut started = false;
        let mut finished = 0u64;
        let mut dst_holder: Option<Addr> = None;
        self.rt
            .spawn_enclosed("bild-coordinator", "rcl", move |ctx| {
                if !started {
                    started = true;
                    let dst = ctx
                        .call("bild.alloc_buffer", GoValue::Int(row_bytes * cfg.height))?
                        .as_ptr()?;
                    dst_holder = Some(dst);
                    let stripe = cfg.height.div_ceil(workers.max(1));
                    for w in 0..workers.max(1) {
                        let (from, to) = (w * stripe, ((w + 1) * stripe).min(cfg.height));
                        ctx.spawn(&format!("bild-worker-{w}"), move |ctx| {
                            for row in from..to {
                                let line = ctx.lb().load(src + row * row_bytes, row_bytes)?;
                                let inverted: Vec<u8> = line.iter().map(|&b| 255 - b).collect();
                                ctx.lb_mut().store(dst + row * row_bytes, &inverted)?;
                                ctx.compute(cfg.width * cfg.pixel_ns);
                            }
                            ctx.chan_send(done_ch, GoValue::Bool(true))?;
                            Ok(enclosure_gofront::Step::Done)
                        });
                    }
                    return Ok(enclosure_gofront::Step::Yield);
                }
                match ctx.chan_recv(done_ch)? {
                    enclosure_gofront::sched::Recv::Value(_) => {
                        finished += 1;
                        if finished == workers.max(1) {
                            ctx.chan_send(
                                result_ch,
                                GoValue::Ptr(dst_holder.expect("set in first quantum")),
                            )?;
                            return Ok(enclosure_gofront::Step::Done);
                        }
                        Ok(enclosure_gofront::Step::Yield)
                    }
                    _ => Ok(enclosure_gofront::Step::Yield),
                }
            })?;
        self.rt.run_scheduler()?;
        let mut harness = enclosure_gofront::GoCtx::harness(&mut self.rt);
        let output = match harness.chan_recv(result_ch)? {
            enclosure_gofront::sched::Recv::Value(v) => v.as_ptr()?,
            other => return Err(Fault::Init(format!("no result: {other:?}"))),
        };
        Ok(InvertRun {
            ns: self.rt.lb().now_ns() - t0,
            output,
            transfers: self.rt.lb().stats().transfers - x0,
        })
    }

    /// Runs one enclosed inversion, returning the simulated time it took.
    ///
    /// # Errors
    ///
    /// Any enclosure fault.
    pub fn run_invert(&mut self) -> Result<InvertRun, Fault> {
        let t0 = self.rt.lb().now_ns();
        let x0 = self.rt.lb().stats().transfers;
        let out = self.rt.call_enclosed("rcl", GoValue::Ptr(self.src_image))?;
        Ok(InvertRun {
            ns: self.rt.lb().now_ns() - t0,
            output: out.as_ptr()?,
            transfers: self.rt.lb().stats().transfers - x0,
        })
    }

    /// Verifies a run's output: every byte must be the inversion of the
    /// source.
    ///
    /// # Errors
    ///
    /// Memory faults reading the buffers.
    pub fn verify(&self, run: &InvertRun) -> Result<bool, Fault> {
        let bytes = self.cfg.row_bytes() * self.cfg.height;
        let src = self.rt.lb().load(self.src_image, bytes)?;
        let dst = self.rt.lb().load(run.output, bytes)?;
        Ok(src.iter().zip(dst.iter()).all(|(&s, &d)| d == 255 - s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litterbox::{InjectionPlan, InjectionSite, TRUSTED_ENV};

    #[test]
    fn invert_is_correct_on_all_backends() {
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = BildApp::new(backend, BildConfig::tiny()).unwrap();
            let run = app.run_invert().unwrap();
            assert!(app.verify(&run).unwrap(), "{backend}");
            assert!(run.ns > 0);
        }
    }

    #[test]
    fn failed_epilog_in_run_op_leaves_the_runtime_trusted() {
        for (backend, site) in [
            (Backend::Mpk, InjectionSite::Wrpkru),
            (Backend::Vtx, InjectionSite::Cr3Write),
        ] {
            let mut app = BildApp::new(backend, BildConfig::tiny()).unwrap();
            // An op that arms a fault on the switch back, then returns its
            // source unchanged.
            app.runtime_mut()
                .register_fn("bild.ArmEpilogFault", move |ctx, src| {
                    ctx.lb_mut()
                        .clock_mut()
                        .arm_injection(InjectionPlan::once(site));
                    Ok(src)
                });
            let err = app.run_op("bild.ArmEpilogFault").unwrap_err();
            assert!(matches!(err, Fault::Transient { .. }), "{backend}: {err}");
            assert_eq!(app.runtime().lb().current_env(), TRUSTED_ENV, "{backend}");
            let c = app.runtime().lb().telemetry().counters();
            assert_eq!(c.prologs, c.epilogs, "{backend}");
            let run = app.run_invert().unwrap();
            assert!(app.verify(&run).unwrap(), "{backend}");
        }
    }

    #[test]
    fn enclosure_cannot_write_the_source_image() {
        // Replace Invert with a malicious body that tries to corrupt the
        // sensitive image (mapped R).
        let cfg = BildConfig::tiny();
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("bild").loc(160_500));
        program.add_source(GoSource::new("main").imports(&["bild"]).enclosure(
            "rcl",
            "bild.Invert",
            "main: R, none",
        ));
        let mut rt = program.build(Backend::Mpk).unwrap();
        rt.register_fn("main.alloc_image", |ctx, arg: GoValue| {
            Ok(GoValue::Ptr(ctx.malloc(arg.as_int()?)?))
        });
        let img = rt
            .call(
                "main.alloc_image",
                GoValue::Int(cfg.row_bytes() * cfg.height),
            )
            .unwrap()
            .as_ptr()
            .unwrap();
        rt.register_fn("bild.Invert", move |ctx, arg: GoValue| {
            let src = arg.as_ptr()?;
            ctx.lb_mut().store(src, &[0]).map(|()| GoValue::Unit)
        });
        let err = rt.call_enclosed("rcl", GoValue::Ptr(img)).unwrap_err();
        assert!(matches!(err, Fault::Memory(_)));
    }

    #[test]
    fn mpk_overhead_exceeds_vtx_for_bild() {
        // Table 2, row 1: the memory-allocation-heavy workload hurts
        // LB_MPK (pkey_mprotect transfers) more than LB_VTX.
        let mut times = Vec::new();
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = BildApp::new(backend, BildConfig::tiny()).unwrap();
            app.runtime_mut().lb_mut().clock_mut().reset();
            let run = app.run_invert().unwrap();
            times.push(run.ns);
        }
        let (base, mpk, vtx) = (times[0], times[1], times[2]);
        assert!(mpk > base, "MPK slower than baseline");
        assert!(vtx > base, "VTX slower than baseline");
        assert!(mpk > vtx, "MPK transfer costs dominate: {mpk} vs {vtx}");
    }

    #[test]
    fn grayscale_flip_blur_are_correct_under_enforcement() {
        let cfg = BildConfig::tiny();
        let mut app = BildApp::new(Backend::Mpk, cfg).unwrap();
        let src = app
            .runtime()
            .lb()
            .load(app.source(), cfg.width * 4 * cfg.height)
            .unwrap();

        let gray_ptr = app.run_op("bild.Grayscale").unwrap();
        let gray = app
            .runtime()
            .lb()
            .load(gray_ptr, cfg.width * 4 * cfg.height)
            .unwrap();
        for (g, s) in gray.chunks(4).zip(src.chunks(4)) {
            assert_eq!(g[0], g[1]);
            assert_eq!(g[1], g[2]);
            assert_eq!(g[3], s[3], "alpha preserved");
        }

        let flip_ptr = app.run_op("bild.FlipH").unwrap();
        let flip = app
            .runtime()
            .lb()
            .load(flip_ptr, cfg.width * 4 * cfg.height)
            .unwrap();
        let w = cfg.width as usize;
        for row in 0..cfg.height as usize {
            let base = row * w * 4;
            assert_eq!(
                &flip[base..base + 4],
                &src[base + (w - 1) * 4..base + w * 4],
                "first pixel comes from last"
            );
        }

        let blur_ptr = app.run_op("bild.BoxBlur").unwrap();
        let blur = app
            .runtime()
            .lb()
            .load(blur_ptr, cfg.width * 4 * cfg.height)
            .unwrap();
        // Interior pixel equals the 3-tap mean.
        let x = 5usize;
        for c in 0..4 {
            let expect = (u32::from(src[(x - 1) * 4 + c])
                + u32::from(src[x * 4 + c])
                + u32::from(src[(x + 1) * 4 + c]))
                / 3;
            assert_eq!(u32::from(blur[x * 4 + c]), expect);
        }
    }

    #[test]
    fn dispatch_cannot_escape_to_foreign_packages() {
        let mut app = BildApp::new(Backend::Vtx, BildConfig::tiny()).unwrap();
        app.runtime_mut().register_fn("bild.Evil", |ctx, _arg| {
            // os-style call would be ExecDenied; direct secret write faults.
            let key = ctx.global_addr("main.privateKey");
            ctx.lb_mut().store_u64(key, 0).map(|()| GoValue::Unit)
        });
        // main.privateKey doesn't exist in this program; use the image.
        let src = app.source();
        app.runtime_mut()
            .register_fn("bild.Evil", move |ctx, _arg| {
                ctx.lb_mut().store(src, &[0]).map(|()| GoValue::Ptr(src))
            });
        let err = app.run_op("bild.Evil").unwrap_err();
        assert!(matches!(err, Fault::Memory(_)));
    }

    #[test]
    fn parallel_invert_is_correct_and_confined() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let mut app = BildApp::new(backend, BildConfig::tiny()).unwrap();
            let run = app.run_invert_parallel(4).unwrap();
            assert!(app.verify(&run).unwrap(), "{backend}");
        }
    }

    #[test]
    fn parallel_workers_inherit_the_enclosure_restrictions() {
        // A malicious worker spawned inside the enclosure is just as
        // confined as the coordinator.
        let mut app = BildApp::new(Backend::Mpk, BildConfig::tiny()).unwrap();
        let src = app.source();
        let rt = app.runtime_mut();
        rt.register_fn("bild.Invert", move |ctx, _arg| {
            ctx.spawn("evil-worker", move |ctx| {
                // Attempt to corrupt the read-only source image.
                ctx.lb_mut().store(src, &[0])?;
                Ok(enclosure_gofront::Step::Done)
            });
            Ok(GoValue::Unit)
        });
        rt.call_enclosed("rcl", GoValue::Unit).unwrap();
        let err = rt.run_scheduler().unwrap_err();
        assert!(matches!(err, Fault::Memory(_)), "{err}");
    }

    #[test]
    fn transfers_are_counted() {
        let mut app = BildApp::new(Backend::Mpk, BildConfig::tiny()).unwrap();
        let run = app.run_invert().unwrap();
        assert!(run.transfers > 0, "span transfers happened");
    }
}
