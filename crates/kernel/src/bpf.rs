//! A classic-BPF (cBPF) virtual machine.
//!
//! seccomp filters are classic BPF programs evaluated over a fixed-layout
//! `seccomp_data` buffer. This module runs the four instructions the
//! filter compiler in [`crate::seccomp`] emits — absolute 32-bit loads,
//! `jeq` against a constant, unconditional jumps and returns — encoded
//! exactly as a real kernel would assemble them.
//!
//! [`Program::new`] is the verifier: it admits only those four opcodes,
//! forward jumps that land inside the program, and a final `RET`, so a
//! validated program cannot run off its end and [`Program::run`] never
//! re-checks an opcode. Loads are bounds-checked against the data at
//! run time.

use std::fmt;

// --- Instruction class ---
/// Load into the accumulator.
pub const BPF_LD: u16 = 0x00;
/// Jump.
pub const BPF_JMP: u16 = 0x05;
/// Return a verdict.
pub const BPF_RET: u16 = 0x06;

// --- Size / addressing mode ---
/// 32-bit word operand.
pub const BPF_W: u16 = 0x00;
/// Absolute offset addressing.
pub const BPF_ABS: u16 = 0x20;
/// Constant operand for JMP/RET.
pub const BPF_K: u16 = 0x00;

// --- Jump conditions ---
/// Unconditional jump.
pub const BPF_JA: u16 = 0x00;
/// Jump if equal.
pub const BPF_JEQ: u16 = 0x10;

/// `ld [k]`: the one load.
const LD_ABS: u16 = BPF_LD | BPF_W | BPF_ABS;
/// `jeq #k, jt, jf`: the one conditional jump.
const JEQ_K: u16 = BPF_JMP | BPF_JEQ | BPF_K;
/// `ja k`: the one unconditional jump.
const JA: u16 = BPF_JMP | BPF_JA;
/// `ret #k`: the one return.
const RET_K: u16 = BPF_RET | BPF_K;

/// seccomp verdict: allow the syscall.
pub const SECCOMP_RET_ALLOW: u32 = 0x7fff_0000;
/// seccomp verdict: kill the process (the paper's "fault ... stops the
/// program's execution").
pub const SECCOMP_RET_KILL_PROCESS: u32 = 0x8000_0000;

/// One classic-BPF instruction (`struct sock_filter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Opcode: class | mode | size or condition.
    pub code: u16,
    /// Jump-if-true displacement.
    pub jt: u8,
    /// Jump-if-false displacement.
    pub jf: u8,
    /// Immediate operand / absolute offset.
    pub k: u32,
}

impl Insn {
    /// `A := data[k..k+4]` (little-endian, as x86 seccomp sees it).
    #[must_use]
    pub fn ld_abs(k: u32) -> Insn {
        Insn {
            code: LD_ABS,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// `if A == k: pc += jt else pc += jf`.
    #[must_use]
    pub fn jeq(k: u32, jt: u8, jf: u8) -> Insn {
        Insn {
            code: JEQ_K,
            jt,
            jf,
            k,
        }
    }

    /// `pc += k` (unconditional).
    #[must_use]
    pub fn ja(k: u32) -> Insn {
        Insn {
            code: JA,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// `return k` (a seccomp verdict).
    #[must_use]
    pub fn ret(k: u32) -> Insn {
        Insn {
            code: RET_K,
            jt: 0,
            jf: 0,
            k,
        }
    }
}

/// Errors raised while validating or running a BPF program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BpfError {
    /// The program is empty or longer than the kernel's 4096-insn limit.
    BadProgramLength(usize),
    /// A jump lands outside the program.
    JumpOutOfRange {
        /// Index of the offending instruction.
        pc: usize,
    },
    /// A load touches bytes outside the data buffer.
    LoadOutOfRange {
        /// Index of the offending instruction.
        pc: usize,
        /// The absolute offset requested.
        offset: u32,
    },
    /// An opcode outside the four the filter compiler emits.
    BadInstruction {
        /// Index of the offending instruction.
        pc: usize,
        /// The opcode.
        code: u16,
    },
    /// The last instruction is not a `RET`, so execution could fall off
    /// the end.
    NoReturn,
}

impl fmt::Display for BpfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BpfError::BadProgramLength(len) => write!(f, "bad program length {len}"),
            BpfError::JumpOutOfRange { pc } => write!(f, "jump out of range at pc {pc}"),
            BpfError::LoadOutOfRange { pc, offset } => {
                write!(f, "load out of range at pc {pc} (offset {offset})")
            }
            BpfError::BadInstruction { pc, code } => {
                write!(f, "bad instruction {code:#06x} at pc {pc}")
            }
            BpfError::NoReturn => write!(f, "program ends without RET"),
        }
    }
}

impl std::error::Error for BpfError {}

/// A validated classic-BPF program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insns: Vec<Insn>,
}

impl Program {
    /// Kernel limit on filter length.
    pub const MAX_INSNS: usize = 4096;

    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Rejects empty/oversized programs, any opcode other than `ld [k]`,
    /// `jeq #k`, `ja` and `ret #k`, jumps that land outside the program,
    /// and a program whose last instruction is not a `RET`.
    pub fn new(insns: Vec<Insn>) -> Result<Program, BpfError> {
        if insns.is_empty() || insns.len() > Program::MAX_INSNS {
            return Err(BpfError::BadProgramLength(insns.len()));
        }
        let last = insns.len() - 1;
        for (pc, insn) in insns.iter().enumerate() {
            // The furthest instruction this one can pass control to.
            let next = match insn.code {
                RET_K => continue,
                LD_ABS => pc + 1,
                JA => pc + 1 + insn.k as usize,
                JEQ_K => pc + 1 + usize::from(insn.jt.max(insn.jf)),
                code => return Err(BpfError::BadInstruction { pc, code }),
            };
            if next > last {
                return Err(if insn.code == LD_ABS {
                    BpfError::NoReturn
                } else {
                    BpfError::JumpOutOfRange { pc }
                });
            }
        }
        Ok(Program { insns })
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True if the program has no instructions (never true for a validated
    /// program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Renders the program as human-readable assembly, one instruction
    /// per line — the format `seccomp-tools` users would expect.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, insn) in self.insns.iter().enumerate() {
            let text = match insn.code {
                LD_ABS => format!("ld  A, data[{}]", insn.k),
                JEQ_K => format!(
                    "jeq #{:#x}, {}, {}",
                    insn.k,
                    pc + 1 + insn.jt as usize,
                    pc + 1 + insn.jf as usize
                ),
                JA => format!("jmp {}", pc + 1 + insn.k as usize),
                // `RET_K`, the only other opcode `Program::new` admits.
                _ => match insn.k {
                    SECCOMP_RET_ALLOW => "ret ALLOW".to_owned(),
                    SECCOMP_RET_KILL_PROCESS => "ret KILL_PROCESS".to_owned(),
                    other => format!("ret {other:#x}"),
                },
            };
            let _ = writeln!(out, "{pc:04}: {text}");
        }
        out
    }

    /// Runs the program over `data`, returning the verdict.
    ///
    /// # Errors
    ///
    /// [`BpfError::LoadOutOfRange`] for a load past the end of `data`.
    pub fn run(&self, data: &[u8]) -> Result<u32, BpfError> {
        let mut acc: u32 = 0;
        let mut pc = 0usize;
        // `Program::new` proved every path ends in a `RET` inside the
        // program, so `pc` stays in range and the loop ends.
        loop {
            let insn = self.insns[pc];
            match insn.code {
                LD_ABS => {
                    let Some(word) = data
                        .get(insn.k as usize..)
                        .and_then(<[u8]>::first_chunk::<4>)
                    else {
                        return Err(BpfError::LoadOutOfRange { pc, offset: insn.k });
                    };
                    acc = u32::from_le_bytes(*word);
                    pc += 1;
                }
                JEQ_K => {
                    let skip = if acc == insn.k { insn.jt } else { insn.jf };
                    pc += 1 + usize::from(skip);
                }
                JA => pc += 1 + insn.k as usize,
                // `RET_K`, the only other opcode `Program::new` admits.
                _ => return Ok(insn.k),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_allow_program() {
        let p = Program::new(vec![Insn::ret(SECCOMP_RET_ALLOW)]).unwrap();
        assert_eq!(p.run(&[0u8; 8]).unwrap(), SECCOMP_RET_ALLOW);
    }

    #[test]
    fn ld_abs_reads_little_endian() {
        let p = Program::new(vec![
            Insn::ld_abs(4),
            Insn::jeq(0xdead_beef, 0, 1),
            Insn::ret(1),
            Insn::ret(2),
        ])
        .unwrap();
        let mut data = vec![0u8; 12];
        data[4..8].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        assert_eq!(p.run(&data).unwrap(), 1);
        data[4] = 0;
        assert_eq!(p.run(&data).unwrap(), 2);
    }

    #[test]
    fn out_of_range_load_errors() {
        let p = Program::new(vec![Insn::ld_abs(100), Insn::ret(0)]).unwrap();
        assert!(matches!(
            p.run(&[0u8; 8]),
            Err(BpfError::LoadOutOfRange { .. })
        ));
    }

    #[test]
    fn validation_rejects_wild_jumps() {
        assert!(matches!(
            Program::new(vec![Insn::jeq(1, 5, 0), Insn::ret(0)]),
            Err(BpfError::JumpOutOfRange { pc: 0 })
        ));
        assert!(matches!(
            Program::new(vec![Insn::ja(9), Insn::ret(0)]),
            Err(BpfError::JumpOutOfRange { pc: 0 })
        ));
    }

    #[test]
    fn validation_rejects_empty_program() {
        assert!(matches!(
            Program::new(vec![]),
            Err(BpfError::BadProgramLength(0))
        ));
    }

    #[test]
    fn jump_over_with_ja() {
        let p = Program::new(vec![Insn::ja(1), Insn::ret(1), Insn::ret(2)]).unwrap();
        assert_eq!(p.run(&[]).unwrap(), 2);
    }

    #[test]
    fn disassembly_is_readable_and_complete() {
        let p = Program::new(vec![
            Insn::ld_abs(64),
            Insn::jeq(0x1234, 1, 0),
            Insn::ja(1),
            Insn::ret(SECCOMP_RET_ALLOW),
            Insn::ret(SECCOMP_RET_KILL_PROCESS),
        ])
        .unwrap();
        let text = p.disassemble();
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("ld  A, data[64]"));
        assert!(text.contains("jeq #0x1234, 3, 2"));
        assert!(text.contains("ret ALLOW"));
        assert!(text.contains("ret KILL_PROCESS"));
    }

    #[test]
    fn validation_rejects_every_opcode_the_compiler_does_not_emit() {
        let rejected = [
            (0x00, "ld #imm"),
            (0x28, "ldh [k]"),
            (0x30, "ldb [k]"),
            (0x40, "ld [x + k]"),
            (0x80, "ld len"),
            (0x01, "ldx #imm"),
            (0x61, "ldx M[k]"),
            (0x02, "st"),
            (0x03, "stx"),
            (0x04, "add #k"),
            (0x44, "or #k"),
            (0x54, "and #k"),
            (0x74, "rsh #k"),
            (0x5c, "and x"),
            (0x07, "tax"),
            (0x87, "txa"),
            (0x25, "jgt #k"),
            (0x35, "jge #k"),
            (0x45, "jset #k"),
            (0x1d, "jeq x"),
            (0x16, "ret A"),
        ];
        for (code, name) in rejected {
            let insn = Insn {
                code,
                jt: 0,
                jf: 0,
                k: 0,
            };
            assert_eq!(
                Program::new(vec![insn, Insn::ret(SECCOMP_RET_ALLOW)]),
                Err(BpfError::BadInstruction { pc: 0, code }),
                "{name}"
            );
        }
    }

    #[test]
    fn validation_rejects_a_program_that_can_run_off_its_end() {
        assert_eq!(
            Program::new(vec![Insn::ret(0), Insn::ld_abs(0)]),
            Err(BpfError::NoReturn)
        );
        assert_eq!(
            Program::new(vec![Insn::ld_abs(0), Insn::jeq(1, 0, 0)]),
            Err(BpfError::JumpOutOfRange { pc: 1 })
        );
    }
}
