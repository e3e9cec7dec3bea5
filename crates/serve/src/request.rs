//! Request and response types for the serving front-end.

use std::fmt;
use std::time::Instant;

/// One generation request: a prompt plus a token budget.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-assigned identifier, echoed on the [`Response`].
    pub(crate) id: u64,
    /// Prompt token ids (non-empty).
    pub(crate) prompt: Vec<usize>,
    /// Number of tokens to generate (≥ 1). Greedy decoding runs for
    /// exactly this many tokens — the toy vocabulary has no stop token.
    pub(crate) max_new: usize,
    /// When the request entered the system; queue-wait accounting starts
    /// here.
    pub(crate) arrival: Instant,
}

impl Request {
    /// A request arriving now.
    pub fn new(id: u64, prompt: Vec<usize>, max_new: usize) -> Request {
        Request {
            id,
            prompt,
            max_new,
            arrival: Instant::now(),
        }
    }
}

/// Why a request can *never* run against this engine. These are permanent
/// rejections raised at submit time; transient resource pressure is not an
/// error the caller sees — it re-queues internally (see
/// `crate::AdmissionError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The prompt has no tokens; there is nothing to prefill.
    EmptyPrompt,
    /// `max_new` is zero; there is nothing to generate.
    NothingToGenerate,
    /// A prompt token is not an id of the model's vocabulary.
    TokenOutOfVocab {
        /// The first such token.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// `prompt.len() + max_new` exceeds the model's maximum sequence
    /// length.
    ExceedsMaxSeq {
        /// Positions the request would occupy.
        needed: usize,
        /// The model's `max_seq`.
        max_seq: usize,
    },
    /// The request's worst-case KV footprint exceeds the *entire* pool —
    /// it could never be admitted, even alone.
    ExceedsPool {
        /// Blocks the request would need.
        needed: usize,
        /// Blocks the pool has in total.
        total: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SubmitError::EmptyPrompt => write!(f, "empty prompt"),
            SubmitError::NothingToGenerate => write!(f, "max_new must be at least 1"),
            SubmitError::TokenOutOfVocab { token, vocab } => {
                write!(
                    f,
                    "prompt token {token} is outside the vocabulary of {vocab}"
                )
            }
            SubmitError::ExceedsMaxSeq { needed, max_seq } => write!(
                f,
                "prompt + max_new needs {needed} positions but the model caps at {max_seq}"
            ),
            SubmitError::ExceedsPool { needed, total } => write!(
                f,
                "request needs {needed} KV blocks but the pool only holds {total}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A completed request: the full token sequence plus latency breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The id the request was submitted with.
    pub id: u64,
    /// Prompt followed by the generated tokens.
    pub tokens: Vec<usize>,
    /// Length of the prompt prefix of [`Response::tokens`].
    pub(crate) prompt_len: usize,
    /// Nanoseconds between arrival and admission into the running batch.
    pub queue_wait_ns: u64,
    /// Nanoseconds between admission and the end of the engine step whose
    /// walk produced the first generated token.
    pub prefill_ns: u64,
    /// Nanoseconds between the end of prefill and the final generated
    /// token.
    pub decode_ns: u64,
}

impl Response {
    /// The generated suffix (everything after the prompt).
    pub fn generated(&self) -> &[usize] {
        &self.tokens[self.prompt_len..]
    }

    /// End-to-end latency in nanoseconds (queue wait + prefill + decode).
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns + self.prefill_ns + self.decode_ns
    }
}
