//! Seeded input generators: the MAC-bank Verilog, its replay stimuli as
//! VCD text, and the pokes of chatty single-cycle steps.
//!
//! The program under test only ever receives the generated text. Every
//! generator is a pure function of its seed, written against this file's
//! own formatter (not the workspace's `VcdWriter`), so a change to the
//! program cannot change the benchmark's inputs.
//!
//! The seed changes only XOR masks on input-derived nets. An XOR with a
//! constant is an inverted edge in the and-inverter graph, so every seed
//! yields the same gate structure and therefore the same `vgpu.*` counts,
//! while the source text and all values differ.

use std::fmt::Write as _;

/// Depth of each MAC lane's RAM (words); also the write-phase length.
pub const RAM_DEPTH: usize = 16;
/// Address width matching [`RAM_DEPTH`].
const ADDR_BITS: u32 = 4;
/// Data width of each RAM word.
const DATA_BITS: u32 = 16;
/// Width of the coefficient input.
const COEF_BITS: u32 = 4;

/// Cycles at the start of every replay stimulus during which `en` stays
/// low: the write phase fills every RAM address, then two more cycles
/// pass so that the words the accumulators consume come from reads made
/// after the write phase (the synchronous read port plus the `rd`
/// register). Outputs then depend only on the stimulus itself, never on
/// what a session ran before, so every request has the same golden result.
pub const QUIET_CYCLES: usize = RAM_DEPTH + 2;

/// SplitMix64: a tiny, well-mixed generator whose sequence is fixed here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream tag (so independent streams of
    /// one seed do not overlap).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform bits of the given width.
    pub fn bits(&mut self, width: u32) -> u64 {
        self.next_u64() & mask(width)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The MAC bank's input ports in the order stimuli drive them, with widths.
pub const INPUTS: [(&str, u32); 7] = [
    ("rst", 1),
    ("we", 1),
    ("waddr", ADDR_BITS),
    ("wdata", DATA_BITS),
    ("raddr", ADDR_BITS),
    ("en", 1),
    ("coef", COEF_BITS),
];

/// Verilog for a bank of `k` multiply-accumulate lanes. Each lane owns a
/// synchronous-read RAM written through a shared port, multiplies the word
/// it read by the shared coefficient, and accumulates into a 32-bit
/// register. `sum` folds every accumulator; `probe` exposes lane 0.
pub fn macbank_verilog(k: u32, seed: u64) -> String {
    assert!(k >= 1, "a MAC bank needs at least one lane");
    let mut rng = Rng::new(seed, 1);
    let mut v = String::new();
    let _ = writeln!(v, "// Generated MAC bank: {k} lane(s), seed {seed:#x}.");
    let _ = writeln!(
        v,
        "module macbank(input clk, input rst, input we, input [{}:0] waddr,",
        ADDR_BITS - 1
    );
    let _ = writeln!(
        v,
        "               input [{}:0] wdata, input [{}:0] raddr, input en,",
        DATA_BITS - 1,
        ADDR_BITS - 1
    );
    let _ = writeln!(
        v,
        "               input [{}:0] coef, output [31:0] sum, output [15:0] probe);",
        COEF_BITS - 1
    );
    for l in 0..k {
        let wmask = rng.bits(DATA_BITS);
        let cmask = rng.bits(COEF_BITS);
        let _ = writeln!(
            v,
            "  reg [{}:0] mem{l} [0:{}];",
            DATA_BITS - 1,
            RAM_DEPTH - 1
        );
        let _ = writeln!(v, "  reg [{}:0] rd{l};", DATA_BITS - 1);
        let _ = writeln!(v, "  reg [31:0] acc{l};");
        // Both operands zero-extended to the 24-bit product.
        let _ = writeln!(v, "  wire [23:0] p{l};");
        let _ = writeln!(
            v,
            "  assign p{l} = {{{}'d0, rd{l}}} * {{{}'d0, coef ^ {COEF_BITS}'h{cmask:x}}};",
            24 - DATA_BITS,
            24 - COEF_BITS
        );
        let _ = writeln!(v, "  always @(posedge clk) begin");
        let _ = writeln!(
            v,
            "    if (we) mem{l}[waddr] <= wdata ^ {DATA_BITS}'h{wmask:04x};"
        );
        let _ = writeln!(v, "    rd{l} <= mem{l}[raddr];");
        let _ = writeln!(v, "    if (rst) acc{l} <= 32'd0;");
        let _ = writeln!(v, "    else if (en) acc{l} <= acc{l} + {{8'd0, p{l}}};");
        let _ = writeln!(v, "  end");
    }
    let fold: Vec<String> = (0..k).map(|l| format!("acc{l}")).collect();
    let _ = writeln!(v, "  wire [31:0] fold;");
    let _ = writeln!(v, "  assign fold = {};", fold.join(" ^ "));
    let _ = writeln!(v, "  assign sum = rst ? 32'd0 : fold;");
    let _ = writeln!(
        v,
        "  assign probe = rst ? 16'd0 : acc0[31:16] ^ acc{}[15:0];",
        k - 1
    );
    let _ = writeln!(v, "endmodule");
    v
}

/// One cycle of MAC-bank inputs, in [`INPUTS`] order.
pub type Pokes = [u64; INPUTS.len()];

/// Random inputs for cycle `t` of a replay stimulus: reset for two
/// cycles, a write phase that fills every RAM address, then random
/// traffic with the accumulators enabled.
fn replay_cycle(rng: &mut Rng, t: usize) -> Pokes {
    let filling = t < RAM_DEPTH;
    [
        u64::from(t < 2),
        if filling { 1 } else { rng.bits(1) },
        if filling {
            t as u64
        } else {
            rng.bits(ADDR_BITS)
        },
        rng.bits(DATA_BITS),
        rng.bits(ADDR_BITS),
        if t < QUIET_CYCLES {
            0
        } else {
            u64::from(rng.below(4) != 0)
        },
        rng.bits(COEF_BITS),
    ]
}

/// The per-cycle inputs of replay stimulus `lane` (one cycle per entry).
pub fn replay_pokes(seed: u64, lane: u32, cycles: usize) -> Vec<Pokes> {
    let mut rng = Rng::new(seed, 0x100 + u64::from(lane));
    (0..cycles).map(|t| replay_cycle(&mut rng, t)).collect()
}

/// Renders per-cycle inputs as a two-state VCD: one timestamp per cycle,
/// every input written at every timestamp (so each timestamp is a cycle).
pub fn vcd_text(pokes: &[Pokes]) -> String {
    let mut v = String::with_capacity(64 + pokes.len() * 64);
    v.push_str("$timescale 1ns $end\n$scope module stim $end\n");
    for (i, (name, width)) in INPUTS.iter().enumerate() {
        let _ = writeln!(v, "$var wire {width} {} {name} $end", id_code(i));
    }
    v.push_str("$upscope $end\n$enddefinitions $end\n");
    for (t, row) in pokes.iter().enumerate() {
        let _ = writeln!(v, "#{t}");
        for (i, ((_, width), value)) in INPUTS.iter().zip(row).enumerate() {
            if *width == 1 {
                let _ = writeln!(v, "{value}{}", id_code(i));
            } else {
                let _ = writeln!(v, "b{value:0w$b} {}", id_code(i), w = *width as usize);
            }
        }
    }
    v
}

fn id_code(i: usize) -> char {
    (b'!' + i as u8) as char
}

/// The `lanes` replay stimuli of one request, as VCD text.
pub fn replay_vcds(seed: u64, lanes: u32, cycles: usize) -> Vec<String> {
    (0..lanes)
        .map(|lane| vcd_text(&replay_pokes(seed, lane, cycles)))
        .collect()
}

/// An endless stream of single-cycle step pokes for one chatty session:
/// reset on the first step, then random traffic.
#[derive(Debug, Clone)]
pub struct ChattyPokes {
    rng: Rng,
    step: u64,
}

impl ChattyPokes {
    /// The stream of session `session` under `seed`.
    pub fn new(seed: u64, session: u32) -> ChattyPokes {
        ChattyPokes {
            rng: Rng::new(seed, 0x200 + u64::from(session)),
            step: 0,
        }
    }
}

impl Iterator for ChattyPokes {
    type Item = Pokes;

    fn next(&mut self) -> Option<Pokes> {
        let r = &mut self.rng;
        let pokes = [
            u64::from(self.step == 0),
            r.bits(1),
            r.bits(ADDR_BITS),
            r.bits(DATA_BITS),
            r.bits(ADDR_BITS),
            r.bits(1),
            r.bits(COEF_BITS),
        ];
        self.step += 1;
        Some(pokes)
    }
}

/// Lower-case hex of `value`, the wire protocol's value encoding.
pub fn hex(value: u64) -> String {
    format!("{value:x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_text_and_other_seeds_differ() {
        assert_eq!(macbank_verilog(16, 7), macbank_verilog(16, 7));
        assert_ne!(macbank_verilog(16, 7), macbank_verilog(16, 8));
        assert_eq!(replay_vcds(7, 64, 64), replay_vcds(7, 64, 64));
        assert_ne!(replay_vcds(7, 4, 64), replay_vcds(8, 4, 64));
        let a: Vec<Pokes> = ChattyPokes::new(7, 0).take(50).collect();
        let b: Vec<Pokes> = ChattyPokes::new(7, 0).take(50).collect();
        let c: Vec<Pokes> = ChattyPokes::new(8, 0).take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lanes_and_sessions_get_distinct_streams() {
        let v = replay_vcds(3, 2, 64);
        assert_ne!(v[0], v[1]);
        let s0: Vec<Pokes> = ChattyPokes::new(3, 0).take(20).collect();
        let s1: Vec<Pokes> = ChattyPokes::new(3, 1).take(20).collect();
        assert_ne!(s0, s1);
    }

    #[test]
    fn replay_stimulus_fills_the_ram_before_enabling() {
        let p = replay_pokes(11, 0, 64);
        for (t, row) in p.iter().enumerate().take(QUIET_CYCLES) {
            assert_eq!(row[5], 0, "en must stay low in the quiet phase");
            if t < RAM_DEPTH {
                assert_eq!((row[1], row[2]), (1, t as u64), "write phase");
            }
        }
        assert_eq!((p[0][0], p[1][0], p[2][0]), (1, 1, 0), "reset then run");
        assert!(p[QUIET_CYCLES..].iter().any(|row| row[5] == 1));
    }

    #[test]
    fn vcd_writes_every_input_at_every_cycle() {
        let text = vcd_text(&replay_pokes(5, 0, 3));
        assert_eq!(text.matches("$var wire").count(), INPUTS.len());
        assert_eq!(text.lines().filter(|l| l.starts_with('#')).count(), 3);
        let body = text.split("$enddefinitions $end\n").nth(1).unwrap();
        assert_eq!(body.lines().count(), 3 * (1 + INPUTS.len()));
    }
}
