"""Engine configuration: thresholds, workspace envelope, reasoning backend,
retry budget.

The config file is JSON and an unknown key is an error; every report echoes
the resolved configuration so a run is reproducible from its report alone.
The remote endpoint and token may come from the environment
(ESPATIAL_ENDPOINT / ESPATIAL_TOKEN).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .geometry import DEFAULT_THRESHOLDS, Thresholds
from .jsonfile import get, known_keys, read_json_object
from .query import DEFAULT_WORKSPACE, WorkspaceEnvelope

ENDPOINT_ENV = "ESPATIAL_ENDPOINT"
TOKEN_ENV = "ESPATIAL_TOKEN"


@dataclass(frozen=True)
class EngineConfig:
    thresholds: Thresholds = DEFAULT_THRESHOLDS
    workspace: WorkspaceEnvelope = DEFAULT_WORKSPACE
    backend: str = "fallback"  # fallback | remote
    remote_endpoint: str | None = None
    max_retries: int = 2

    def __post_init__(self):
        if self.backend not in ("fallback", "remote"):
            raise ParseError(f"unknown backend {self.backend!r}", field="backend")
        if self.max_retries < 0:
            raise ParseError(f"max_retries must be non-negative, got {self.max_retries}", field="max_retries")

    def resolve_endpoint(self) -> str | None:
        return self.remote_endpoint or os.environ.get(ENDPOINT_ENV)

    def make_client(self):
        """Reasoning client for the configured backend."""
        from .cot import FallbackReasoner, RemoteClient
        from .errors import BackendUnavailable

        if self.backend == "fallback":
            return FallbackReasoner()
        endpoint = self.resolve_endpoint()
        if not endpoint:
            raise BackendUnavailable(
                f"remote backend selected but no endpoint configured ({ENDPOINT_ENV} unset)"
            )
        return RemoteClient(endpoint)

    def to_dict(self) -> dict:
        return {
            "thresholds": self.thresholds.to_dict(),
            "workspace": self.workspace.to_dict(),
            "backend": self.backend,
            "remote_endpoint": self.remote_endpoint,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        known_keys(data, cls)
        return cls(
            thresholds=get(data, "thresholds", Thresholds.from_dict, DEFAULT_THRESHOLDS),
            workspace=get(data, "workspace", WorkspaceEnvelope.from_dict, DEFAULT_WORKSPACE),
            backend=get(data, "backend", str, "fallback"),
            remote_endpoint=get(data, "remote_endpoint", str, None),
            max_retries=get(data, "max_retries", int, 2),
        )


def load_config(path: str | Path) -> EngineConfig:
    return EngineConfig.from_dict(read_json_object(path))
