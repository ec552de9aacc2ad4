"""Report serialisation: canonical JSON, checksums, atomic file writes.

A report is a JSON document with three top-level keys: `payload` (all
diagnostic content), `payload_sha256` (checksum of the canonical
serialisation of the payload), and `generated_at` (wall-clock
timestamp). Keeping the timestamp outside the checksummed payload makes
reports from identical runs content-comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from .errors import FileFormatError

TOOL_VERSION = "0.1.0"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text via a temp file + rename in the target directory."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write bytes via a temp file + rename in the target directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, full float precision."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: Any) -> str:
    """Checksum of a fully resolved configuration (canonical JSON)."""
    return sha256_hex(canonical_json(config))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Checksummed diagnostic payload plus generation metadata."""

    payload: dict
    payload_sha256: str
    generated_at: str

    @classmethod
    def build(cls, payload: dict) -> "DiagnosticsReport":
        return cls(
            payload=payload,
            payload_sha256=sha256_hex(canonical_json(payload)),
            generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    def to_json(self) -> str:
        doc = {
            "payload": self.payload,
            "payload_sha256": self.payload_sha256,
            "generated_at": self.generated_at,
        }
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"


def write_report(report: DiagnosticsReport, path: str | Path) -> None:
    atomic_write_text(path, report.to_json())


def read_report(path: str | Path) -> DiagnosticsReport:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not UTF-8 text") from None
    # A plain ValueError, not JSONDecodeError, for an integer beyond
    # Python's digit limit (sys.get_int_max_str_digits, 4300 by default).
    except ValueError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or not {"payload", "payload_sha256"} <= set(doc):
        raise FileFormatError(f"{path}: not a diagnostics report")
    try:
        expected = sha256_hex(canonical_json(doc["payload"]))
    except ValueError:  # NaN or an infinity, which json.loads reads and JSON does not define
        raise FileFormatError(f"{path}: payload holds a non-finite number") from None
    if doc["payload_sha256"] != expected:
        raise FileFormatError(
            f"{path}: payload checksum mismatch (stored {doc['payload_sha256']}, "
            f"recomputed {expected})"
        )
    return DiagnosticsReport(
        payload=doc["payload"],
        payload_sha256=doc["payload_sha256"],
        generated_at=str(doc.get("generated_at", "")),
    )


def merge_reports(paths: Sequence[str | Path]) -> DiagnosticsReport:
    """Combine several reports into one, keyed by their source file names.

    Each entry carries the source name, its payload, and the original
    payload checksum, so merged reports stay traceable to their inputs.
    """
    if not paths:
        raise FileFormatError("at least one report is required to merge")
    entries = []
    for path in paths:
        report = read_report(path)
        entries.append(
            {
                "source": Path(path).name,
                "payload": report.payload,
                "payload_sha256": report.payload_sha256,
            }
        )
    return DiagnosticsReport.build({"merged_reports": entries})
