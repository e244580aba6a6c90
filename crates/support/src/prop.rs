//! A deterministic property-loop harness.
//!
//! The workspace's property tests used `proptest`; offline we run the
//! same predicates over a fixed number of pseudo-random cases drawn
//! from [`crate::XorShift`], seeded by the test name. Failures report
//! the case index and seed so a run can be replayed exactly (it always
//! replays — the stream is deterministic).

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// Runs `body` for `cases` pseudo-random cases. The generator is seeded
/// from `label`, so every property gets an independent, reproducible
/// stream. Panics inside `body` are annotated with the case number.
pub fn run_cases(label: &str, cases: u32, mut body: impl FnMut(&mut crate::XorShift)) {
    let mut rng = crate::XorShift::from_label(label);
    for case in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property '{label}' failed at case {case}/{cases}: {msg}");
        }
    }
}

/// Declares deterministic property tests.
///
/// ```
/// enclosure_support::props! {
///     /// Addition commutes.
///     fn addition_commutes(rng, cases = 32) {
///         let a = rng.range_u64(0, 1000);
///         let b = rng.range_u64(0, 1000);
///         assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]` that runs the body for `cases`
/// pseudo-random cases (default [`DEFAULT_CASES`]), with `rng` bound to
/// a [`crate::XorShift`] seeded from the test name.
#[macro_export]
macro_rules! props {
    ($($(#[$attr:meta])* fn $name:ident($rng:ident $(, cases = $cases:expr)?) $body:block)*) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                #[allow(unused_mut, unused_variables)]
                let cases = $crate::prop::DEFAULT_CASES;
                $(let cases = $cases;)?
                $crate::prop::run_cases(stringify!($name), cases, |$rng| $body);
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::props! {
        /// The harness actually exercises the body with varying input.
        fn bodies_see_varied_input(rng, cases = 16) {
            let v = rng.range_u64(0, 1_000_000);
            assert!(v < 1_000_000);
        }
    }

    #[test]
    fn failure_reports_case_index() {
        let err = std::panic::catch_unwind(|| {
            run_cases("always_fails", 8, |_rng| panic!("boom"));
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("case 0/8"), "{msg}");
    }
}
