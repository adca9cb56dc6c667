//! The `llm` layer probe: an [`LlmClient`] that forwards every call to a
//! [`SimLlm`] and records, per call, its host span and what it returned.
//!
//! Used on check and traced passes only; timed passes hand the runtime the
//! bare engine.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spear_core::llm::{GenRequest, GenResponse, GenReuse, LlmClient, ReusePolicy};
use spear_core::Result;
use spear_llm::SimLlm;

use crate::alloc;

/// One recorded generation call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Span start, ns since the probe's epoch.
    pub start_ns: u64,
    /// Span end, ns since the probe's epoch.
    pub end_ns: u64,
    /// Small per-thread id of the calling lane.
    pub thread: u64,
    /// FNV-1a of the rendered prompt.
    pub prompt: u64,
    /// FNV-1a of the response text.
    pub text: u64,
    /// Bit pattern of the response confidence.
    pub confidence: u64,
    /// The call was served from the generation memo.
    pub reused: bool,
    /// Allocations made inside the engine call (counting windows only).
    pub allocs: u64,
}

/// A call's observable output keyed by its input: hashes of the prompt and
/// the response text, and the confidence bits.
pub type Response = (u64, u64, u64);

impl Call {
    /// The call's observable output, keyed by its input.
    pub fn response_key(&self) -> Response {
        (self.prompt, self.text, self.confidence)
    }
}

/// The forwarding, recording client.
pub struct ProbeLlm {
    inner: Arc<SimLlm>,
    epoch: Instant,
    calls: Mutex<Vec<Call>>,
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TAG: Cell<u64> = const { Cell::new(0) });
    TAG.with(|tag| {
        if tag.get() == 0 {
            tag.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
}

impl ProbeLlm {
    /// A probe in front of `inner`, with span times relative to `epoch`
    /// and room for `capacity` calls before its log allocates.
    pub fn new(inner: Arc<SimLlm>, epoch: Instant, capacity: usize) -> Self {
        Self {
            inner,
            epoch,
            calls: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// The calls recorded so far, in completion order.
    pub fn calls(&self) -> Vec<Call> {
        self.calls
            .lock()
            .expect("probe log is never poisoned")
            .clone()
    }

    fn observe(
        &self,
        request: &GenRequest,
        call: impl FnOnce(&SimLlm) -> Result<(GenResponse, Option<GenReuse>)>,
    ) -> Result<(GenResponse, Option<GenReuse>)> {
        let allocs_before = alloc::allocs();
        let start = self.epoch.elapsed();
        let result = call(&self.inner);
        let end = self.epoch.elapsed();
        let allocs = alloc::allocs().saturating_sub(allocs_before);
        if let Ok((response, reuse)) = &result {
            let record = Call {
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
                thread: thread_tag(),
                prompt: fnv1a(request.text.as_bytes()),
                text: fnv1a(response.text.as_bytes()),
                confidence: response.confidence.to_bits(),
                reused: reuse.is_some_and(|r| r.reused),
                allocs,
            };
            self.calls
                .lock()
                .expect("probe log is never poisoned")
                .push(record);
        }
        result
    }
}

impl LlmClient for ProbeLlm {
    fn generate(&self, request: &GenRequest) -> Result<GenResponse> {
        self.observe(request, |llm| llm.generate(request).map(|r| (r, None)))
            .map(|(response, _)| response)
    }

    fn generate_with_reuse(
        &self,
        request: &GenRequest,
        policy: ReusePolicy,
    ) -> Result<(GenResponse, Option<GenReuse>)> {
        self.observe(request, |llm| llm.generate_with_reuse(request, policy))
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }
}
