"""LLM-level fault injection.

:class:`FaultyLLMClient` wraps any :class:`~repro.llm.client.LLMClient`
and corrupts its behavior according to a :class:`FaultPlan`:

- ``llm.transient`` -- the first N calls for a given sampling seed raise
  :class:`LLMTimeoutError` / :class:`LLMRateLimitError` (alternating),
  then the call goes through.  The base client's retry loop
  (:meth:`LLMClient.complete_with_retry`) absorbs these.
- ``llm.truncate`` -- the response text is cut mid-script, simulating a
  completion that hit its output token limit.
- ``llm.unknown_knob`` -- a setting for a knob the target system does
  not have is spliced into the script.
- ``llm.out_of_range`` -- a real knob is set to an absurd value.
- ``llm.malformed`` -- statement terminators are stripped and operators
  garbled, simulating prose bleeding into the script.

All corruptions are keyed by the sampling ``seed``, so the same plan
produces the same corrupted scripts in every run and process.
"""

from __future__ import annotations

from repro.errors import LLMRateLimitError, LLMTimeoutError
from repro.faults.plan import (
    LLM_MALFORMED,
    LLM_OUT_OF_RANGE,
    LLM_TRANSIENT,
    LLM_TRUNCATE,
    LLM_UNKNOWN_KNOB,
    FaultPlan,
)
from repro.llm.client import LLMClient, LLMResponse


class FaultyLLMClient(LLMClient):
    """A fault-injecting decorator around another LLM client."""

    def __init__(self, inner: LLMClient, plan: FaultPlan) -> None:
        self._inner = inner
        self.plan = plan
        self.model = inner.model
        self.max_input_tokens = inner.max_input_tokens
        # Attempt counters per sampling key, so transient faults clear
        # after ``transient_count`` failures.  Counters are the only
        # mutable state and live with the one job that owns this client
        # (jobs never share a fault-wrapped client).
        self._attempts: dict[str, int] = {}

    def complete(
        self, prompt: str, *, temperature: float = 0.7, seed: int = 0
    ) -> LLMResponse:
        key = f"sample-{seed}"
        failures = self.plan.transient_count(LLM_TRANSIENT, key)
        attempt = self._attempts.get(key, 0)
        if attempt < failures:
            self._attempts[key] = attempt + 1
            decision = self.plan.decide(LLM_TRANSIENT, key)
            label = decision.describe() if decision else key
            if attempt % 2 == 0:
                raise LLMTimeoutError(f"injected LLM timeout {label}")
            raise LLMRateLimitError(f"injected LLM rate limit {label}")

        response = self._inner.complete(prompt, temperature=temperature, seed=seed)
        text = self._corrupt(response.text, key)
        if text is response.text:
            return response
        return LLMResponse(
            text=text,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            model=response.model,
        )

    # -- corruptions -------------------------------------------------------------

    def _corrupt(self, text: str, key: str) -> str:
        decision = self.plan.decide(LLM_UNKNOWN_KNOB, key)
        if decision is not None:
            text = self._inject_unknown_knob(text, decision.magnitude)
        decision = self.plan.decide(LLM_OUT_OF_RANGE, key)
        if decision is not None:
            text = self._inject_out_of_range(text, decision.magnitude)
        decision = self.plan.decide(LLM_MALFORMED, key)
        if decision is not None:
            text = self._garble(text, decision.magnitude)
        decision = self.plan.decide(LLM_TRUNCATE, key)
        if decision is not None:
            # Keep between 10% and 90% of the script: magnitude 0 should
            # still leave a recognizably truncated (non-empty) prefix.
            keep = int(len(text) * (0.1 + 0.8 * decision.magnitude))
            text = text[:keep]
        return text

    @staticmethod
    def _inject_unknown_knob(text: str, magnitude: float) -> str:
        value = 1 + int(magnitude * 4096)
        return text + f"\nALTER SYSTEM SET quantum_flux_capacity = {value};"

    @staticmethod
    def _inject_out_of_range(text: str, magnitude: float) -> str:
        # A petabyte-scale shared_buffers: syntactically valid, rejected
        # by knob bounds validation.
        petabytes = 1 + int(magnitude * 9)
        return text + (
            f"\nALTER SYSTEM SET shared_buffers = '{petabytes * 1024 * 1024}GB';"
        )

    @staticmethod
    def _garble(text: str, magnitude: float) -> str:
        """Deterministically damage script syntax."""
        lines = text.split("\n")
        # Damage a contiguous band of lines whose position depends on
        # the magnitude draw; mid-script damage exercises the parser's
        # per-line recovery, not just prefix/suffix handling.
        if not lines:
            return text
        start = int(magnitude * len(lines))
        stop = min(len(lines), start + 2)
        for position in range(start, stop):
            lines[position] = (
                lines[position].replace(";", "").replace("=", "~").replace("SET ", "ST ")
            )
        return "\n".join(lines)
