//! GEN — LLM invocation (paper §3.3).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{Result, SpearError};
use crate::llm::{GenOptions, GenRequest, PromptIdentity};
use crate::ops::PromptRef;
use crate::runtime::{ExecState, Runtime};
use crate::segment::SegmentedText;
use crate::template::{self, ParsedTemplate};
use crate::trace::TraceKind;
use crate::value::{map, Value};

/// A resolved prompt: the flat rendered text, its segmented form (joins to
/// `text` byte-for-byte), and the identity. The identity carries the
/// structure-gates-caching rule: only structured prompts (store entries,
/// views, lowered prompts with a plan identity) are cacheable. The segments
/// carry the renderer's literal/value boundaries so backends can memoize
/// tokenization of shared prefixes.
pub(crate) struct ResolvedPrompt {
    pub text: String,
    pub segments: SegmentedText,
    pub identity: PromptIdentity,
}

/// Resolve a prompt reference to rendered text + segments + identity,
/// with an optional pre-parsed template for the inline/lowered forms —
/// the compiled VM pins the parse in its constant pool, so warm plans
/// skip the parse-cache lookup per render (the tree walk passes `None`).
pub(crate) fn resolve_prompt_with(
    rt: &Runtime,
    prompt: &PromptRef,
    parsed: Option<&Arc<ParsedTemplate>>,
    state: &ExecState,
) -> Result<ResolvedPrompt> {
    let render_template = |text: &str| -> Result<SegmentedText> {
        match parsed {
            Some(parsed) => {
                template::render_segmented_parsed(parsed, text, &BTreeMap::new(), &state.context)
            }
            None => template::render_segmented(text, &BTreeMap::new(), &state.context),
        }
    };
    let (segments, identity) =
        match prompt {
            PromptRef::Key(key) => {
                let entry = state.prompts.get(key)?;
                let segments = entry.render_segmented(&state.context)?;
                let identity = entry.cache_identity().map_or(PromptIdentity::Opaque, |id| {
                    PromptIdentity::Structured { id }
                });
                (segments, identity)
            }
            PromptRef::Inline(text) => {
                let segments = render_template(text)?;
                (segments, PromptIdentity::Opaque)
            }
            PromptRef::Lowered { text, identity } => {
                let segments = render_template(text)?;
                let identity = identity.clone().map_or(PromptIdentity::Opaque, |id| {
                    PromptIdentity::Structured { id }
                });
                (segments, identity)
            }
            PromptRef::View { name, args } => {
                let entry = rt.views.instantiate(name, args.clone())?;
                let segments = entry.render_segmented(&state.context)?;
                let identity = entry.cache_identity().map_or(PromptIdentity::Opaque, |id| {
                    PromptIdentity::Structured { id }
                });
                (segments, identity)
            }
        };
    Ok(ResolvedPrompt {
        text: segments.join(),
        segments,
        identity,
    })
}

/// Handler for [`crate::ops::Op::Gen`]: renders the prompt, calls the
/// backend, and records the generation in C, M, and the trace. `parsed` is
/// the compiled VM's pooled pre-parse of an inline/lowered template
/// (`None` on the tree walk).
pub(crate) fn run(
    rt: &Runtime,
    label: &str,
    prompt: &PromptRef,
    options: &GenOptions,
    parsed: Option<&Arc<ParsedTemplate>>,
    state: &mut ExecState,
) -> Result<()> {
    let llm = rt.llm.as_deref().ok_or(SpearError::LlmUnavailable {
        requested_by: "GEN".into(),
    })?;
    let resolved = resolve_prompt_with(rt, prompt, parsed, state)?;
    let (response, reuse) = llm.generate_with_reuse(
        &GenRequest {
            text: resolved.text,
            identity: resolved.identity,
            options: options.clone(),
            segments: Some(resolved.segments),
        },
        state.reuse,
    )?;
    state
        .context
        .set_attributed(label, response.text.clone(), state.step, "GEN");
    state
        .metadata
        .record_gen(response.usage, response.latency, response.confidence);
    if let Some(reuse) = reuse {
        state
            .metadata
            .record_reuse(reuse.key, reuse.reused, response.usage);
    }
    state
        .metadata
        .set(format!("confidence:{label}"), response.confidence);
    state.trace.record(
        state.step,
        TraceKind::Gen,
        format!("GEN[{label:?}]"),
        map([
            ("model", Value::from(response.model.clone())),
            ("confidence", Value::from(response.confidence)),
            ("prompt_tokens", Value::from(response.usage.prompt_tokens)),
            ("cached_tokens", Value::from(response.usage.cached_tokens)),
            (
                "completion_tokens",
                Value::from(response.usage.completion_tokens),
            ),
            (
                "latency_us",
                Value::from(u64::try_from(response.latency.as_micros()).unwrap_or(u64::MAX)),
            ),
        ]),
    );
    Ok(())
}
