use std::error::Error;
use std::fmt;

use crate::netlist::NodeId;

/// The external netlist format a parse error originated from.
///
/// Carried by the `Parse*` variants of [`NetlistError`] so a caller (or a
/// log line) can say *which* front-end rejected the input. The formats
/// themselves are specified normatively in `docs/FORMATS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFormat {
    /// The native line-oriented `.nl` interchange format of [`crate::io`].
    NativeNl,
    /// The structural-Verilog subset of [`crate::ingest::parse_verilog`].
    Verilog,
    /// The EDIF 2.0.0 subset of [`crate::ingest::parse_edif`].
    Edif,
}

impl SourceFormat {
    /// Lowercase human-readable name (`"nl"`, `"verilog"`, `"edif"`).
    pub fn name(self) -> &'static str {
        match self {
            SourceFormat::NativeNl => "nl",
            SourceFormat::Verilog => "verilog",
            SourceFormat::Edif => "edif",
        }
    }
}

impl fmt::Display for SourceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A source position plus the offending line of text, carried by every
/// parse-error variant of [`NetlistError`].
///
/// `line` and `col` are 1-based; `snippet` is the source line the error
/// points into (trimmed of trailing whitespace, truncated to 120 chars)
/// so error messages are self-contained even when the input file is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrcLoc {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in characters).
    pub col: usize,
    /// The source line the error points into.
    pub snippet: String,
}

impl fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: `{}`", self.line, self.col, self.snippet)
    }
}

/// Errors produced while building or analyzing a [`crate::Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// The combinational part of the netlist contains a cycle through the
    /// given node, so no topological evaluation order exists.
    CombinationalCycle {
        /// A node participating in the cycle.
        node: NodeId,
    },
    /// A gate was constructed with the wrong number of inputs.
    ArityMismatch {
        /// The offending gate kind, as a human-readable name.
        gate: &'static str,
        /// Number of inputs supplied.
        got: usize,
        /// Number of inputs expected (minimum for variadic gates).
        expected: usize,
    },
    /// Two buses that must have equal widths do not.
    WidthMismatch {
        /// Width of the first operand.
        left: usize,
        /// Width of the second operand.
        right: usize,
    },
    /// A vector supplied to a simulator does not match the input count.
    InputWidthMismatch {
        /// Number of bits supplied.
        got: usize,
        /// Number of primary inputs of the netlist.
        expected: usize,
    },
    /// An empty stream or workload was supplied where at least one vector is
    /// required.
    EmptyStream,
    /// The requested worker-thread count is invalid (zero, or an
    /// `HLPOWER_THREADS` value that does not parse as a positive integer).
    InvalidThreadCount {
        /// Human-readable description of the offending configuration.
        reason: String,
    },
    /// Two [`crate::Activity`] records from different netlists (different
    /// node counts) were merged.
    ActivitySizeMismatch {
        /// Node count of the record being merged into.
        left: usize,
        /// Node count of the record being merged from.
        right: usize,
    },
    /// A combinational-only engine was asked to simulate a sequential
    /// netlist.
    NotCombinational {
        /// Number of flip-flops in the offending netlist.
        dffs: usize,
    },
    /// A [`crate::TimedActivity`] records more functional transitions than
    /// total transitions on a node, so the glitch count would underflow.
    /// This indicates the record was assembled from mismatched runs (e.g.
    /// counters taken mid-stream or merged across different stimuli).
    GlitchUnderflow {
        /// Index of the offending node.
        node: usize,
        /// Total transitions recorded for the node.
        toggles: u64,
        /// Functional transitions recorded for the node.
        functional: u64,
    },
    /// A [`crate::TimedActivity`]'s functional-transition vector does not
    /// have one entry per node of its toggle vector.
    FunctionalSizeMismatch {
        /// Length of the toggle vector.
        toggles: usize,
        /// Length of the functional vector.
        functional: usize,
    },
    /// An external netlist file violated its format's grammar: an
    /// unexpected token, a malformed declaration, or (for instance
    /// networks) a combinational cycle that makes node construction
    /// impossible. `message` says what was expected.
    ParseSyntax {
        /// The front-end that rejected the input.
        format: SourceFormat,
        /// Where in the source the violation was detected.
        at: SrcLoc,
        /// What was expected versus found.
        message: String,
    },
    /// An identifier (net, instance, or port name) was referenced but
    /// never declared or driven in a context that requires a declaration.
    ParseUnknownName {
        /// The front-end that rejected the input.
        format: SourceFormat,
        /// Where the undeclared name was referenced.
        at: SrcLoc,
        /// The undeclared name.
        name: String,
    },
    /// An instance references a cell (module) name outside the supported
    /// primitive/library-cell vocabulary (see `docs/FORMATS.md` for the
    /// accepted cell names and the suffix-stripping rule).
    ParseUnknownCell {
        /// The front-end that rejected the input.
        format: SourceFormat,
        /// Where the instance appears.
        at: SrcLoc,
        /// The unrecognized cell name, as written.
        cell: String,
    },
    /// The input uses a construct that is valid in the full source
    /// language but outside the structural subset this crate ingests
    /// (e.g. behavioral Verilog, expression assigns, hierarchical EDIF).
    ParseUnsupported {
        /// The front-end that rejected the input.
        format: SourceFormat,
        /// Where the construct appears.
        at: SrcLoc,
        /// A short description of the unsupported construct.
        construct: String,
    },
    /// A net is driven by more than one source (two instance outputs,
    /// or an instance output and a continuous assign).
    ParseMultipleDrivers {
        /// The front-end that rejected the input.
        format: SourceFormat,
        /// Where the second driver appears.
        at: SrcLoc,
        /// The multiply-driven net name.
        name: String,
    },
    /// A [`crate::NetlistEditor`] operation would break an editor
    /// invariant: a fanin out of range or equal to the gate itself, a
    /// rewire or removal of a node that is not a combinational gate, or a
    /// missing pin or output index.
    IncrementalMismatch {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
    /// A net is read (by an instance pin or a primary output) but has no
    /// driver: no instance output, assign, constant, or input port.
    ParseUndriven {
        /// The front-end that rejected the input.
        format: SourceFormat,
        /// Where the undriven net is read.
        at: SrcLoc,
        /// The undriven net name.
        name: String,
    },
    /// A pre-compiled [`crate::CompiledKernel`] was paired with a netlist
    /// it was not compiled from (node counts differ). Kernel caches must
    /// key kernels by the exact netlist they were built from.
    KernelMismatch {
        /// Node count of the netlist handed to the simulator.
        expected: usize,
        /// Node count the kernel was compiled for.
        got: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::CombinationalCycle { node } => {
                write!(f, "combinational cycle through node {node}")
            }
            NetlistError::ArityMismatch { gate, got, expected } => {
                write!(f, "gate {gate} built with {got} inputs, expected {expected}")
            }
            NetlistError::WidthMismatch { left, right } => {
                write!(f, "bus width mismatch: {left} vs {right}")
            }
            NetlistError::InputWidthMismatch { got, expected } => {
                write!(f, "input vector has {got} bits, netlist has {expected} primary inputs")
            }
            NetlistError::EmptyStream => write!(f, "input stream produced no vectors"),
            NetlistError::InvalidThreadCount { reason } => {
                write!(f, "invalid worker-thread count: {reason}")
            }
            NetlistError::ActivitySizeMismatch { left, right } => {
                write!(f, "activity size mismatch: {left} vs {right} nodes")
            }
            NetlistError::NotCombinational { dffs } => {
                write!(f, "netlist is sequential ({dffs} flip-flops), expected combinational")
            }
            NetlistError::GlitchUnderflow { node, toggles, functional } => {
                write!(
                    f,
                    "glitch count underflow on node {node}: {toggles} toggles < {functional} \
                     functional transitions"
                )
            }
            NetlistError::FunctionalSizeMismatch { toggles, functional } => {
                write!(
                    f,
                    "timed activity size mismatch: {toggles} toggle entries vs {functional} \
                     functional entries"
                )
            }
            NetlistError::IncrementalMismatch { reason } => {
                write!(f, "netlist is not an incremental edit of the recorded base: {reason}")
            }
            NetlistError::ParseSyntax { format, at, message } => {
                write!(f, "{format} parse error at {at}: {message}")
            }
            NetlistError::ParseUnknownName { format, at, name } => {
                write!(f, "{format} parse error at {at}: unknown name '{name}'")
            }
            NetlistError::ParseUnknownCell { format, at, cell } => {
                write!(f, "{format} parse error at {at}: unknown cell '{cell}'")
            }
            NetlistError::ParseUnsupported { format, at, construct } => {
                write!(f, "{format} parse error at {at}: unsupported construct: {construct}")
            }
            NetlistError::ParseMultipleDrivers { format, at, name } => {
                write!(f, "{format} parse error at {at}: net '{name}' has multiple drivers")
            }
            NetlistError::ParseUndriven { format, at, name } => {
                write!(f, "{format} parse error at {at}: net '{name}' is read but never driven")
            }
            NetlistError::KernelMismatch { expected, got } => {
                write!(
                    f,
                    "compiled kernel was built for a {got}-node netlist, \
                     but the netlist has {expected} nodes"
                )
            }
        }
    }
}

impl Error for NetlistError {}
