//! Opt-in symbol-attributed cycle profiler.
//!
//! Attack forensics often start with "where was the CPU spending its time?"
//! — a tight polling loop in the firmware looks very different from a ROP
//! chain walking gadget epilogues scattered across flash. [`CycleProfile`]
//! follows the call/return flow, maintains a shadow call stack of
//! *symbols*, and attributes every consumed cycle to the function executing
//! it — both exclusively (the frame on top) and inclusively (every frame on
//! the stack), with a folded-stacks text export any flamegraph renderer
//! eats.

use avr_core::image::FirmwareImage;

/// How control left the profiled instruction, as far as the shadow call
/// stack is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Sequential, a branch, or anything else that stays in (or jumps
    /// laterally between) functions without pushing or popping a frame.
    Straight,
    /// `call`/`rcall`/`icall`/`eicall`: a frame is entered.
    Call,
    /// `ret`/`reti`: the top frame is left.
    Ret,
}

/// Shadow call-stack depth cap. Deeper pushes are counted, not stored, so
/// a runaway recursion (or a ROP chain faking returns) cannot grow the
/// profiler without bound; matching pops unwind the counter first.
const MAX_DEPTH: usize = 128;

/// Cap on distinct folded stacks kept; beyond it, cycles land in
/// [`CycleProfile::folded_dropped_cycles`] instead of new paths.
const MAX_FOLDED_PATHS: usize = 16_384;

/// Cycle totals for one function symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCycles {
    /// Symbol name (`"[unknown]"` for PCs outside every symbol).
    pub name: String,
    /// Cycles with this function anywhere on the shadow stack (counted
    /// once per instruction even under recursion).
    pub inclusive: u64,
    /// Cycles with this function on top of the shadow stack.
    pub exclusive: u64,
}

/// Symbol-attributed cycle profiler.
///
/// Fed by `Machine::step` with `(pc, cycles, flow, next pc)` per retired
/// instruction, it keeps a shadow stack of symbol indices: calls push the
/// callee, returns pop, and an instruction whose symbol differs from the
/// top frame *replaces* it (a lateral move — tail jump, or a ROP chain
/// that never really "called" anything). That replacement rule is what
/// keeps attribution sane under the attacks this repo studies: gadgets
/// show up as the symbols they live in, not as mis-nested frames.
///
/// Interrupt dispatch pushes the vector's symbol like a call (`reti` pops
/// it), so ISR cycles nest under whatever they preempted.
#[derive(Debug, Clone)]
pub struct CycleProfile {
    /// `(start_byte, end_byte)` per symbol, sorted; index = symbol id.
    ranges: Vec<(u32, u32)>,
    names: Vec<String>,
    /// Virtual symbol id for PCs outside every range (== `names.len() - 1`).
    unknown: u16,
    stack: Vec<u16>,
    /// Frames notionally pushed beyond [`MAX_DEPTH`].
    truncated: u64,
    inclusive: Vec<u64>,
    exclusive: Vec<u64>,
    /// Epoch scratch for once-per-instruction inclusive marking.
    seen: Vec<u64>,
    epoch: u64,
    folded: std::collections::BTreeMap<Vec<u16>, u64>,
    folded_dropped: u64,
    total: u64,
    /// Last range hit, a one-entry cache (PCs are strongly local).
    last_hit: usize,
}

impl CycleProfile {
    /// Build a profiler over `image`'s symbol table (every sized symbol,
    /// not just functions — the vector table and data stubs catch strays).
    pub fn from_image(image: &FirmwareImage) -> Self {
        Self::from_symbols(
            image
                .symbols
                .iter()
                .filter(|s| s.size > 0)
                .map(|s| (s.name.clone(), s.addr, s.addr + s.size)),
        )
    }

    /// Build a profiler from raw `(name, start_byte, end_byte)` ranges.
    pub fn from_symbols(symbols: impl IntoIterator<Item = (String, u32, u32)>) -> Self {
        let mut syms: Vec<(u32, u32, String)> = symbols
            .into_iter()
            .map(|(name, start, end)| (start, end, name))
            .collect();
        syms.sort_by_key(|s| (s.0, s.1));
        let ranges = syms.iter().map(|&(s, e, _)| (s, e)).collect();
        let mut names: Vec<String> = syms.into_iter().map(|(_, _, n)| n).collect();
        assert!(names.len() < u16::MAX as usize, "symbol table too large");
        let unknown = names.len() as u16;
        names.push("[unknown]".to_string());
        let n = names.len();
        CycleProfile {
            ranges,
            names,
            unknown,
            stack: Vec::with_capacity(MAX_DEPTH),
            truncated: 0,
            inclusive: vec![0; n],
            exclusive: vec![0; n],
            seen: vec![0; n],
            epoch: 0,
            folded: std::collections::BTreeMap::new(),
            folded_dropped: 0,
            total: 0,
            last_hit: 0,
        }
    }

    fn resolve(&mut self, pc_bytes: u32) -> u16 {
        if let Some(&(s, e)) = self.ranges.get(self.last_hit) {
            if (s..e).contains(&pc_bytes) {
                return self.last_hit as u16;
            }
        }
        match self
            .ranges
            .partition_point(|&(start, _)| start <= pc_bytes)
            .checked_sub(1)
        {
            Some(i) if pc_bytes < self.ranges[i].1 => {
                self.last_hit = i;
                i as u16
            }
            _ => self.unknown,
        }
    }

    fn push(&mut self, sym: u16) {
        if self.stack.len() >= MAX_DEPTH {
            self.truncated += 1;
        } else {
            self.stack.push(sym);
        }
    }

    fn pop(&mut self) {
        if self.truncated > 0 {
            self.truncated -= 1;
        } else if self.stack.len() > 1 {
            // The root frame stays: a `ret` past the bottom (bare-metal
            // main never returns; ROP chains do) keeps attributing to
            // wherever the next instruction lands via the lateral rule.
            self.stack.pop();
        }
    }

    fn attribute(&mut self, delta: u64) {
        self.total += delta;
        let top = *self.stack.last().expect("stack never empty here") as usize;
        self.exclusive[top] += delta;
        self.epoch += 1;
        for &f in &self.stack {
            let f = f as usize;
            if self.seen[f] != self.epoch {
                self.seen[f] = self.epoch;
                self.inclusive[f] += delta;
            }
        }
        if let Some(c) = self.folded.get_mut(self.stack.as_slice()) {
            *c += delta;
        } else if self.folded.len() < MAX_FOLDED_PATHS {
            self.folded.insert(self.stack.clone(), delta);
        } else {
            self.folded_dropped += delta;
        }
    }

    /// Account one retired instruction: `delta` cycles at `pc_bytes`,
    /// leaving control at `next_pc_bytes` via `flow`.
    pub fn record(&mut self, pc_bytes: u32, delta: u64, flow: Flow, next_pc_bytes: u32) {
        let sym = self.resolve(pc_bytes);
        // Lateral sync: if execution sits in a different function than the
        // top frame claims (tail jump, ROP pivot, fall-through), rewrite
        // the top rather than inventing nesting.
        match self.stack.last_mut() {
            Some(top) if *top != sym => *top = sym,
            Some(_) => {}
            None => self.stack.push(sym),
        }
        self.attribute(delta);
        match flow {
            Flow::Call => {
                let callee = self.resolve(next_pc_bytes);
                self.push(callee);
            }
            Flow::Ret => self.pop(),
            Flow::Straight => {}
        }
    }

    /// Account an interrupt dispatch: `delta` cycles, vectoring to
    /// `vector_pc_bytes`. Pushes the vector's symbol like a call; the
    /// ISR's `reti` pops it.
    pub fn interrupt(&mut self, vector_pc_bytes: u32, delta: u64) {
        let sym = self.resolve(vector_pc_bytes);
        if self.stack.is_empty() {
            self.stack.push(sym);
        } else {
            self.push(sym);
        }
        self.attribute(delta);
    }

    /// Total cycles attributed.
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// Cycles that hit the folded-path cap instead of a stored path
    /// (0 unless the program produced more than
    /// [`MAX_FOLDED_PATHS`] distinct stacks).
    pub fn folded_dropped_cycles(&self) -> u64 {
        self.folded_dropped
    }

    /// Per-function totals, hottest exclusive first (ties by name);
    /// functions that never ran are omitted.
    pub fn functions(&self) -> Vec<FuncCycles> {
        let mut v: Vec<FuncCycles> = self
            .names
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.inclusive[i] > 0)
            .map(|(i, name)| FuncCycles {
                name: name.clone(),
                inclusive: self.inclusive[i],
                exclusive: self.exclusive[i],
            })
            .collect();
        v.sort_by(|a, b| b.exclusive.cmp(&a.exclusive).then(a.name.cmp(&b.name)));
        v
    }

    /// Folded-stacks export: one `frame;frame;... cycles` line per
    /// distinct stack, sorted, newline-terminated — the format flamegraph
    /// renderers consume directly.
    pub fn folded(&self) -> String {
        let mut lines: Vec<String> = self
            .folded
            .iter()
            .map(|(path, cycles)| {
                let frames: Vec<&str> = path
                    .iter()
                    .map(|&f| self.names[f as usize].as_str())
                    .collect();
                format!("{} {cycles}", frames.join(";"))
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_funcs() -> CycleProfile {
        CycleProfile::from_symbols([
            ("main".to_string(), 0, 10),
            ("leaf".to_string(), 10, 20),
            ("isr".to_string(), 20, 30),
        ])
    }

    #[test]
    fn call_ret_attribution_and_folded_export() {
        let mut p = three_funcs();
        p.record(0, 1, Flow::Straight, 2); // main
        p.record(2, 5, Flow::Call, 10); // call leaf: 5 cycles in main
        p.record(10, 1, Flow::Straight, 12); // leaf body
        p.record(12, 5, Flow::Ret, 4); // ret: 5 cycles in leaf
        p.record(4, 2, Flow::Straight, 6); // back in main
        assert_eq!(p.total_cycles(), 14);
        let f = p.functions();
        assert_eq!(f[0].name, "main");
        assert_eq!(f[0].exclusive, 8);
        assert_eq!(f[0].inclusive, 14, "main includes leaf's cycles");
        assert_eq!(f[1].name, "leaf");
        assert_eq!(f[1].exclusive, 6);
        assert_eq!(f[1].inclusive, 6);
        assert_eq!(p.folded(), "main 8\nmain;leaf 6\n");
    }

    #[test]
    fn interrupt_nests_and_reti_unwinds() {
        let mut p = three_funcs();
        p.record(0, 2, Flow::Straight, 2); // main
        p.interrupt(20, 5); // vector to isr
        p.record(20, 1, Flow::Straight, 22); // isr body
        p.record(22, 5, Flow::Ret, 2); // reti
        p.record(2, 1, Flow::Straight, 4); // main again
        let f = p.functions();
        assert_eq!(f[0].name, "isr");
        assert_eq!(f[0].exclusive, 11, "dispatch cycles belong to the ISR");
        assert_eq!(f[1].name, "main");
        assert_eq!(f[1].exclusive, 3);
        assert_eq!(f[1].inclusive, 14);
        assert!(p.folded().contains("main;isr 11"));
    }

    #[test]
    fn lateral_moves_replace_the_top_frame() {
        let mut p = three_funcs();
        p.record(0, 1, Flow::Straight, 12); // main, then a rjmp into leaf
        p.record(12, 3, Flow::Straight, 14); // ROP-style lateral: no call
        let f = p.functions();
        assert_eq!(f[0].name, "leaf");
        assert_eq!(f[0].exclusive, 3);
        assert_eq!(f[1].name, "main");
        assert_eq!(f[1].exclusive, 1);
        // The stack never deepened: two disjoint root paths.
        assert_eq!(p.folded(), "leaf 3\nmain 1\n");
    }

    #[test]
    fn unknown_pcs_and_deep_recursion_stay_bounded() {
        let mut p = three_funcs();
        p.record(500, 2, Flow::Straight, 502); // outside every symbol
        assert_eq!(p.functions()[0].name, "[unknown]");
        // Recurse far past MAX_DEPTH, then unwind: no panic, balanced.
        for _ in 0..(MAX_DEPTH + 50) {
            p.record(0, 1, Flow::Call, 0);
        }
        for _ in 0..(MAX_DEPTH + 50) {
            p.record(2, 1, Flow::Ret, 2);
        }
        p.record(4, 1, Flow::Straight, 6);
        assert_eq!(p.stack.len(), 1, "unwound to the root frame");
        // Inclusive counts main once per instruction despite recursion.
        let main = p
            .functions()
            .into_iter()
            .find(|f| f.name == "main")
            .unwrap();
        assert_eq!(main.inclusive as usize, 2 * (MAX_DEPTH + 50) + 1);
    }
}
