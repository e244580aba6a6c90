//! A classic-BPF (cBPF) virtual machine.
//!
//! seccomp filters are classic BPF programs evaluated over a fixed-layout
//! `seccomp_data` buffer. This module implements the instruction subset
//! seccomp filters use — absolute 32-bit loads, ALU ops, conditional and
//! unconditional jumps, and returns — faithfully enough that the programs
//! emitted by [`crate::seccomp`] would assemble for a real kernel.
//!
//! The interpreter enforces the kernel's own safety rules: jumps only move
//! forward, loads stay in bounds, and every path must end in a `RET`.

use std::fmt;

// --- Instruction class ---
/// Load into the accumulator.
pub const BPF_LD: u16 = 0x00;
/// Load into the index register.
pub const BPF_LDX: u16 = 0x01;
/// ALU operation on the accumulator.
pub const BPF_ALU: u16 = 0x04;
/// Jump.
pub const BPF_JMP: u16 = 0x05;
/// Return a verdict.
pub const BPF_RET: u16 = 0x06;
/// Register move (TAX/TXA).
pub const BPF_MISC: u16 = 0x07;

// --- Size / addressing mode ---
/// 32-bit word operand.
pub const BPF_W: u16 = 0x00;
/// Absolute offset addressing.
pub const BPF_ABS: u16 = 0x20;
/// Immediate operand.
pub const BPF_IMM: u16 = 0x00;
/// Constant operand for ALU/JMP.
pub const BPF_K: u16 = 0x00;
/// Index-register operand for ALU/JMP.
pub const BPF_X: u16 = 0x08;

// --- Jump conditions ---
/// Unconditional jump.
pub const BPF_JA: u16 = 0x00;
/// Jump if equal.
pub const BPF_JEQ: u16 = 0x10;
/// Jump if strictly greater (unsigned).
pub const BPF_JGT: u16 = 0x20;
/// Jump if greater-or-equal (unsigned).
pub const BPF_JGE: u16 = 0x30;
/// Jump if `A & k` is non-zero.
pub const BPF_JSET: u16 = 0x40;

// --- ALU ops ---
/// Bitwise and.
pub const BPF_AND: u16 = 0x50;
/// Bitwise or.
pub const BPF_OR: u16 = 0x40;
/// Right shift.
pub const BPF_RSH: u16 = 0x70;

// --- MISC ops ---
/// A := X.
pub const BPF_TXA: u16 = 0x80;
/// X := A.
pub const BPF_TAX: u16 = 0x00;

/// seccomp verdict: allow the syscall.
pub const SECCOMP_RET_ALLOW: u32 = 0x7fff_0000;
/// seccomp verdict: kill the process (the paper's "fault ... stops the
/// program's execution").
pub const SECCOMP_RET_KILL_PROCESS: u32 = 0x8000_0000;
/// seccomp verdict base: fail the syscall with the errno in the low 16
/// bits instead of killing the process (Linux `SECCOMP_RET_ERRNO`). The
/// interpreter and disassembler handle it; the filter compiler never
/// emits it, since every denial kills (§2.1).
pub const SECCOMP_RET_ERRNO: u32 = 0x0005_0000;
/// Mask selecting the verdict's action (high half).
pub const SECCOMP_RET_ACTION: u32 = 0xffff_0000;
/// Mask selecting the verdict's data (errno) half.
pub const SECCOMP_RET_DATA: u32 = 0x0000_ffff;

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
            code: BPF_LD | BPF_W | BPF_ABS,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// `A := k`.
    #[must_use]
    pub fn ld_imm(k: u32) -> Insn {
        Insn {
            code: BPF_LD | BPF_W | BPF_IMM,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// `if A == k: pc += jt else pc += jf`.
    #[must_use]
    pub fn jeq(k: u32, jt: u8, jf: u8) -> Insn {
        Insn {
            code: BPF_JMP | BPF_JEQ | BPF_K,
            jt,
            jf,
            k,
        }
    }

    /// `if A >= k: pc += jt else pc += jf`.
    #[must_use]
    pub fn jge(k: u32, jt: u8, jf: u8) -> Insn {
        Insn {
            code: BPF_JMP | BPF_JGE | BPF_K,
            jt,
            jf,
            k,
        }
    }

    /// `if A & k: pc += jt else pc += jf`.
    #[must_use]
    pub fn jset(k: u32, jt: u8, jf: u8) -> Insn {
        Insn {
            code: BPF_JMP | BPF_JSET | BPF_K,
            jt,
            jf,
            k,
        }
    }

    /// `pc += k` (unconditional).
    #[must_use]
    pub fn ja(k: u32) -> Insn {
        Insn {
            code: BPF_JMP | BPF_JA,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// `return k` (a seccomp verdict).
    #[must_use]
    pub fn ret(k: u32) -> Insn {
        Insn {
            code: BPF_RET | BPF_K,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// `A := A & k`.
    #[must_use]
    pub fn and(k: u32) -> Insn {
        Insn {
            code: BPF_ALU | BPF_AND | BPF_K,
            jt: 0,
            jf: 0,
            k,
        }
    }

    /// `A := A >> k`.
    #[must_use]
    pub fn rsh(k: u32) -> Insn {
        Insn {
            code: BPF_ALU | BPF_RSH | BPF_K,
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
    /// Unknown or unsupported opcode.
    BadInstruction {
        /// Index of the offending instruction.
        pc: usize,
        /// The opcode.
        code: u16,
    },
    /// Execution fell off the end without returning.
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
            BpfError::NoReturn => write!(f, "program ended without RET"),
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
    /// Rejects empty/oversized programs and forward jumps that land outside
    /// the program, mirroring the kernel verifier.
    pub fn new(insns: Vec<Insn>) -> Result<Program, BpfError> {
        if insns.is_empty() || insns.len() > Program::MAX_INSNS {
            return Err(BpfError::BadProgramLength(insns.len()));
        }
        for (pc, insn) in insns.iter().enumerate() {
            if insn.code & 0x07 == BPF_JMP {
                let cond = insn.code & 0xf0;
                if cond == BPF_JA {
                    if pc + 1 + insn.k as usize > insns.len() - 1 {
                        return Err(BpfError::JumpOutOfRange { pc });
                    }
                } else {
                    let t = pc + 1 + insn.jt as usize;
                    let f_ = pc + 1 + insn.jf as usize;
                    if t > insns.len() - 1 || f_ > insns.len() - 1 {
                        return Err(BpfError::JumpOutOfRange { pc });
                    }
                }
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

    /// The raw instructions.
    #[must_use]
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Renders the program as human-readable assembly, one instruction
    /// per line — the format `seccomp-tools` users would expect.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, insn) in self.insns.iter().enumerate() {
            let class = insn.code & 0x07;
            let text = match class {
                BPF_LD => {
                    if insn.code & 0xe0 == BPF_ABS {
                        format!("ld  A, data[{}]", insn.k)
                    } else {
                        format!("ld  A, #{:#x}", insn.k)
                    }
                }
                BPF_LDX => format!("ldx X, #{:#x}", insn.k),
                BPF_ALU => {
                    let op = match insn.code & 0xf0 {
                        BPF_AND => "and",
                        BPF_OR => "or ",
                        BPF_RSH => "rsh",
                        _ => "alu?",
                    };
                    format!("{op} A, #{:#x}", insn.k)
                }
                BPF_JMP => {
                    let cond = insn.code & 0xf0;
                    if cond == BPF_JA {
                        format!("jmp {}", pc + 1 + insn.k as usize)
                    } else {
                        let op = match cond {
                            BPF_JEQ => "jeq",
                            BPF_JGT => "jgt",
                            BPF_JGE => "jge",
                            BPF_JSET => "jset",
                            _ => "j?",
                        };
                        format!(
                            "{op} #{:#x}, {}, {}",
                            insn.k,
                            pc + 1 + insn.jt as usize,
                            pc + 1 + insn.jf as usize
                        )
                    }
                }
                BPF_RET => match insn.k {
                    SECCOMP_RET_ALLOW => "ret ALLOW".to_owned(),
                    SECCOMP_RET_KILL_PROCESS => "ret KILL_PROCESS".to_owned(),
                    k if k & SECCOMP_RET_ACTION == SECCOMP_RET_ERRNO => {
                        format!("ret ERRNO({})", k & SECCOMP_RET_DATA)
                    }
                    other => format!("ret {other:#x}"),
                },
                BPF_MISC => {
                    if insn.code & 0xf8 == BPF_TAX {
                        "tax".to_owned()
                    } else {
                        "txa".to_owned()
                    }
                }
                _ => format!(".byte {:#06x}", insn.code),
            };
            let _ = writeln!(out, "{pc:04}: {text}");
        }
        out
    }

    /// Runs the program over `data`, returning the verdict.
    ///
    /// # Errors
    ///
    /// Returns a [`BpfError`] for out-of-range loads, bad opcodes, or a
    /// missing return.
    pub fn run(&self, data: &[u8]) -> Result<u32, BpfError> {
        let mut acc: u32 = 0;
        let mut idx: u32 = 0;
        let mut pc = 0usize;
        let mut steps = 0usize;
        while pc < self.insns.len() {
            // Defensive bound: validated programs cannot loop (forward
            // jumps only), but keep the interpreter total anyway.
            steps += 1;
            if steps > self.insns.len() + 1 {
                return Err(BpfError::NoReturn);
            }
            let insn = self.insns[pc];
            let class = insn.code & 0x07;
            match class {
                BPF_LD => {
                    let mode = insn.code & 0xe0;
                    if mode == BPF_ABS {
                        let off = insn.k as usize;
                        if off + 4 > data.len() {
                            return Err(BpfError::LoadOutOfRange { pc, offset: insn.k });
                        }
                        acc = u32::from_le_bytes([
                            data[off],
                            data[off + 1],
                            data[off + 2],
                            data[off + 3],
                        ]);
                    } else if mode == BPF_IMM {
                        acc = insn.k;
                    } else {
                        return Err(BpfError::BadInstruction {
                            pc,
                            code: insn.code,
                        });
                    }
                    pc += 1;
                }
                BPF_LDX => {
                    idx = insn.k;
                    pc += 1;
                }
                BPF_ALU => {
                    let op = insn.code & 0xf0;
                    let operand = if insn.code & BPF_X != 0 { idx } else { insn.k };
                    match op {
                        BPF_AND => acc &= operand,
                        BPF_OR => acc |= operand,
                        BPF_RSH => acc = acc.wrapping_shr(operand),
                        _ => {
                            return Err(BpfError::BadInstruction {
                                pc,
                                code: insn.code,
                            })
                        }
                    }
                    pc += 1;
                }
                BPF_JMP => {
                    let cond = insn.code & 0xf0;
                    if cond == BPF_JA {
                        pc = pc + 1 + insn.k as usize;
                        continue;
                    }
                    let operand = if insn.code & BPF_X != 0 { idx } else { insn.k };
                    let taken = match cond {
                        BPF_JEQ => acc == operand,
                        BPF_JGT => acc > operand,
                        BPF_JGE => acc >= operand,
                        BPF_JSET => acc & operand != 0,
                        _ => {
                            return Err(BpfError::BadInstruction {
                                pc,
                                code: insn.code,
                            })
                        }
                    };
                    pc = pc
                        + 1
                        + if taken {
                            insn.jt as usize
                        } else {
                            insn.jf as usize
                        };
                }
                BPF_RET => {
                    return Ok(insn.k);
                }
                BPF_MISC => {
                    let op = insn.code & 0xf8;
                    if op == BPF_TAX {
                        idx = acc;
                    } else if op == BPF_TXA {
                        acc = idx;
                    } else {
                        return Err(BpfError::BadInstruction {
                            pc,
                            code: insn.code,
                        });
                    }
                    pc += 1;
                }
                _ => {
                    return Err(BpfError::BadInstruction {
                        pc,
                        code: insn.code,
                    })
                }
            }
        }
        Err(BpfError::NoReturn)
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
    fn alu_and_jset() {
        // Return the masked low nibble class: A = data[0..4] & 0xf; if A has
        // bit 0b100 set return 7 else 9.
        let p = Program::new(vec![
            Insn::ld_abs(0),
            Insn::and(0xf),
            Insn::jset(0b100, 0, 1),
            Insn::ret(7),
            Insn::ret(9),
        ])
        .unwrap();
        assert_eq!(p.run(&[0b0101, 0, 0, 0]).unwrap(), 7);
        assert_eq!(p.run(&[0b0010, 0, 0, 0]).unwrap(), 9);
    }

    #[test]
    fn jump_over_with_ja() {
        let p = Program::new(vec![Insn::ja(1), Insn::ret(1), Insn::ret(2)]).unwrap();
        assert_eq!(p.run(&[]).unwrap(), 2);
    }

    #[test]
    fn rsh_shifts_accumulator() {
        let p = Program::new(vec![
            Insn::ld_abs(0),
            Insn::rsh(8),
            Insn::jeq(0xAB, 0, 1),
            Insn::ret(1),
            Insn::ret(0),
        ])
        .unwrap();
        let data = 0x0000_AB00u32.to_le_bytes();
        assert_eq!(p.run(&data).unwrap(), 1);
    }

    #[test]
    fn tax_txa_move_registers() {
        let p = Program::new(vec![
            Insn::ld_abs(0),
            Insn {
                code: BPF_MISC | BPF_TAX,
                jt: 0,
                jf: 0,
                k: 0,
            },
            Insn::ld_imm(0),
            Insn {
                code: BPF_MISC | BPF_TXA,
                jt: 0,
                jf: 0,
                k: 0,
            },
            Insn::jeq(42, 0, 1),
            Insn::ret(1),
            Insn::ret(0),
        ])
        .unwrap();
        assert_eq!(p.run(&42u32.to_le_bytes()).unwrap(), 1);
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
    fn errno_verdicts_disassemble_with_their_code() {
        let p = Program::new(vec![Insn::ret(SECCOMP_RET_ERRNO | 13)]).unwrap();
        assert!(
            p.disassemble().contains("ret ERRNO(13)"),
            "{}",
            p.disassemble()
        );
        assert_eq!(p.run(&[0u8; 8]).unwrap(), SECCOMP_RET_ERRNO | 13);
    }

    #[test]
    fn jge_unsigned_compare() {
        let p = Program::new(vec![
            Insn::ld_abs(0),
            Insn::jge(10, 0, 1),
            Insn::ret(1),
            Insn::ret(0),
        ])
        .unwrap();
        assert_eq!(p.run(&10u32.to_le_bytes()).unwrap(), 1);
        assert_eq!(p.run(&9u32.to_le_bytes()).unwrap(), 0);
        assert_eq!(p.run(&u32::MAX.to_le_bytes()).unwrap(), 1);
    }
}
