"""The gab.com origin.

Implements the two Gab interfaces the paper used:

* ``/api/v1/accounts/{id}`` (§3.1) — JSON account records addressed by the
  integer counter ID; unallocated and deleted IDs return a JSON error.
  Every API response carries ``X-RateLimit-Remaining`` and
  ``X-RateLimit-Reset`` headers, and exceeding the window yields 429 —
  the paper's crawler paced itself off exactly these headers (§3.4).
* ``/api/v1/accounts/{id}/followers`` and ``…/following`` (§3.4) —
  paginated follower lists (``?page=N``, fixed page size), complete
  enumeration guaranteed by pagination.
* ``/users/{username}`` — the profile page; deleted accounts render the
  distinctive "deleted" appearance the paper matched against a
  test-deleted account (§4.1.1).
"""

from __future__ import annotations

import datetime
import json

from repro.net.clock import Clock
from repro.net.http import Headers, Request, Response
from repro.net.router import App
from repro.platform.apps.html import page, tiny_error
from repro.platform.entities import GabAccount
from repro.platform.gab import GabUniverse
from repro.platform.socialgraph import SocialGraph

__all__ = ["GabApp", "PAGE_SIZE", "RATE_LIMIT_WINDOW", "RATE_LIMIT_REQUESTS"]

PAGE_SIZE = 80
RATE_LIMIT_WINDOW = 300.0        # seconds
RATE_LIMIT_REQUESTS = 300        # per window


class GabApp(App):
    """HTTP application over the Gab universe and follow graph."""

    def __init__(self, gab: GabUniverse, social: SocialGraph, clock: Clock):
        super().__init__("gab.com")
        self._gab = gab
        self._social = social
        self._clock = clock
        self._window_start = clock.now()
        self._window_used = 0
        # gab_id -> serialized account record.  The universe and follow
        # graph are fixed once the world is built, so each record is
        # serialized once per app instead of once per response.
        self._account_bodies: dict[int, bytes] = {}
        self.use(self._rate_limit)
        self.get("/api/v1/accounts/{gab_id}")(self._account)
        self.get("/api/v1/accounts/{gab_id}/followers")(self._followers)
        self.get("/api/v1/accounts/{gab_id}/following")(self._following)
        self.get("/users/{username}")(self._profile_page)

    # ------------------------------------------------------------------
    # Rate limiting: fixed window with header exposure.
    # ------------------------------------------------------------------

    def _rate_limit(self, request: Request) -> Response | None:
        now = self._clock.now()
        if now - self._window_start >= RATE_LIMIT_WINDOW:
            self._window_start = now
            self._window_used = 0
        if self._window_used >= RATE_LIMIT_REQUESTS:
            response = Response(status=429, body=b'{"error":"Throttled"}')
            self._attach_headers(response)
            return response
        self._window_used += 1
        return None

    def _attach_headers(self, response: Response) -> None:
        remaining = max(0, RATE_LIMIT_REQUESTS - self._window_used)
        reset_at = self._window_start + RATE_LIMIT_WINDOW
        response.headers.set("X-RateLimit-Remaining", str(remaining))
        response.headers.set("X-RateLimit-Reset", f"{reset_at:.0f}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _lookup(self, gab_id_raw: str) -> GabAccount | None:
        try:
            gab_id = int(gab_id_raw)
        except ValueError:
            return None
        account = self._gab.by_id.get(gab_id)
        if account is None or account.is_deleted:
            # Deleted accounts disappear from the API just like unallocated
            # IDs — this is what creates the paper's 1,300 orphaned
            # Dissenter users.
            return None
        return account

    def _account_body(self, account: GabAccount) -> bytes:
        """The account's JSON record, serialized once per app."""
        body = self._account_bodies.get(account.gab_id)
        if body is None:
            body = json.dumps(self._account_json(account)).encode("utf-8")
            self._account_bodies[account.gab_id] = body
        return body

    def _json_body(self, body: bytes) -> Response:
        """A 200 JSON response around already-serialized bytes."""
        response = Response(
            status=200,
            headers=Headers({"Content-Type": "application/json"}),
            body=body,
        )
        self._attach_headers(response)
        return response

    def _account_json(self, account: GabAccount) -> dict:
        created = datetime.datetime.fromtimestamp(
            account.created_at, tz=datetime.timezone.utc
        )
        return {
            "id": str(account.gab_id),
            "username": account.username,
            "acct": account.username,
            "display_name": account.display_name,
            "note": account.bio,
            "created_at": created.strftime("%Y-%m-%dT%H:%M:%S.000Z"),
            "followers_count": self._social.in_degree(account.gab_id),
            "following_count": self._social.out_degree(account.gab_id),
        }

    def _json_error(self, message: str, status: int = 404) -> Response:
        response = Response.json_response({"error": message}, status=status)
        self._attach_headers(response)
        return response

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _account(self, request: Request, params: dict[str, str]) -> Response:
        account = self._lookup(params["gab_id"])
        if account is None:
            return self._json_error("Record not found")
        return self._json_body(self._account_body(account))

    def _paginated_accounts(
        self, request: Request, gab_ids: list[int]
    ) -> Response:
        try:
            page_number = max(1, int(request.query.get("page", "1")))
        except ValueError:
            page_number = 1
        start = (page_number - 1) * PAGE_SIZE
        window = gab_ids[start : start + PAGE_SIZE]
        by_id = self._gab.by_id
        bodies = [
            self._account_body(by_id[g])
            for g in window
            if g in by_id and not by_id[g].is_deleted
        ]
        # The bytes json.dumps gives the list with default separators.
        return self._json_body(b"[" + b", ".join(bodies) + b"]")

    def _followers(self, request: Request, params: dict[str, str]) -> Response:
        account = self._lookup(params["gab_id"])
        if account is None:
            return self._json_error("Record not found")
        ids = sorted(self._social.followers_of(account.gab_id))
        return self._paginated_accounts(request, ids)

    def _following(self, request: Request, params: dict[str, str]) -> Response:
        account = self._lookup(params["gab_id"])
        if account is None:
            return self._json_error("Record not found")
        ids = sorted(self._social.following_of(account.gab_id))
        return self._paginated_accounts(request, ids)

    def _profile_page(self, request: Request, params: dict[str, str]) -> Response:
        account = self._gab.by_username.get(params["username"])
        if account is None:
            return Response.html(tiny_error("No such user"), status=404)
        if account.is_deleted:
            body = '<div class="account-deleted">This account is deleted.</div>'
            return Response.html(page("Gab", body, pad=False))
        body = (
            f'<h1 class="display-name">{account.display_name}</h1>'
            f'<span class="username">@{account.username}</span>'
        )
        return Response.html(page(f"@{account.username}", body))
