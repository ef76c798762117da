"""Minimal stdlib client for the certification daemon.

``http.client`` only — the same no-dependency discipline as the server.
Used by ``repro submit``, the CI service-smoke job and the tests; small
enough to crib for any other client.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlsplit

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The daemon could not be reached or spoke something unparseable."""


class ServiceClient:
    """Talk JSON to a running ``repro serve`` daemon."""

    def __init__(self, url: str = "http://127.0.0.1:8642", timeout: float = 600.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ServiceError(f"only http:// URLs are supported, got {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8642
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: dict | None = None,
        *, headers: dict | None = None, raw: bool = False,
    ) -> tuple[int, object, dict]:
        """Returns ``(status, parsed_json_or_text, headers)``."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            send_headers = dict(headers or {})
            if payload:
                send_headers.setdefault("Content-Type", "application/json")
            conn.request(method, path, body=payload, headers=send_headers)
            response = conn.getresponse()
            data = response.read()
            if raw:
                return response.status, data.decode(), dict(response.getheaders())
            try:
                doc = json.loads(data.decode() or "{}")
            except ValueError as exc:
                raise ServiceError(
                    f"unparseable response ({response.status}): {data[:200]!r}"
                ) from exc
            return response.status, doc, dict(response.getheaders())
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(f"cannot reach daemon at "
                               f"{self.host}:{self.port}: {exc}") from exc
        finally:
            conn.close()

    def health(self) -> dict:
        status, doc, _ = self._request("GET", "/healthz")
        if status != 200:
            raise ServiceError(f"healthz returned {status}: {doc}")
        return doc

    def metrics(self) -> dict:
        status, doc, _ = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"metrics returned {status}: {doc}")
        return doc.get("metrics", {})

    def metrics_text(self) -> str:
        """Prometheus text exposition of the daemon's metrics."""
        status, text, _ = self._request(
            "GET", "/metrics", headers={"Accept": "text/plain"}, raw=True
        )
        if status != 200:
            raise ServiceError(f"metrics returned {status}: {text[:200]}")
        return text

    def status(self) -> dict:
        """Live introspection doc: in-flight requests, progress, counters."""
        status, doc, _ = self._request("GET", "/status")
        if status != 200:
            raise ServiceError(f"status returned {status}: {doc}")
        return doc

    def submit(self, request: dict, *, wait: bool = True) -> tuple[int, dict]:
        """POST a certify request; returns ``(http_status, response_doc)``.

        200 → ``{"status": "done", "certificate": {...}, "cached": ...}``;
        202 → accepted without waiting (``wait=False``; poll ``status()``
        then ``certificate(doc["key"])``); 429 → shed (honour
        ``retry_after_s``); 500 → the campaign failed (``error_kind``);
        503 → draining.  Every response
        carries the server-assigned ``request_id``.
        """
        body = dict(request)
        if not wait:
            body["wait"] = False
        status, doc, _ = self._request("POST", "/certify", body=body)
        return status, doc

    def certificate(self, key: str) -> dict | None:
        status, doc, _ = self._request("GET", f"/certificate/{key}")
        return doc if status == 200 else None
