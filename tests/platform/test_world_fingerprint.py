"""Golden fingerprint of a generated world.

World bytes depend on the exact numpy ``Generator`` streams every
generator consumes.  A refactor of a draw site (say, replacing
``rng.choice`` with an equivalent ``integers``/CDF draw) must leave the
world unchanged; this test pins a sha256 over every comment text,
username, bio, title, URL and follow edge of one small world so that any
drift fails here first, before it surfaces as a shifted figure.

If the world is changed on purpose, regenerate the hash with::

    PYTHONPATH=src python -m tests.platform.test_world_fingerprint
"""

from __future__ import annotations

import hashlib

from repro.platform import WorldConfig, build_world
from repro.platform.world import World

CONFIG = WorldConfig(scale=0.001, seed=2020)

GOLDEN_SHA256 = "762da7c324f340d9918b118496143e5ccd0b9b5fc2e2c27cbd22f8907ebe212f"


def canonical_summary(world: World) -> str:
    """One line per world fact, in generation order (follow edges sorted)."""
    lines: list[str] = []
    for a in world.gab.accounts:
        lines.append(f"gab\t{a.gab_id}\t{a.username}\t{a.display_name}\t{a.bio}")
    for u in world.dissenter.users:
        lines.append(f"user\t{u.author_id.hex}\t{u.username}\t{u.language}\t{u.bio}")
    for u in world.urls.urls:
        lines.append(
            f"url\t{u.commenturl_id.hex}\t{u.url}\t{u.title}\t{u.description}"
        )
    for c in world.dissenter.comments:
        lines.append(f"comment\t{c.comment_id.hex}\t{c.language}\t{c.text}")
    for key, item in world.youtube.items.items():
        lines.append(f"youtube\t{key}\t{item.title}\t{item.owner}\t{item.status}")
    for name, account in world.reddit.accounts.items():
        lines.append(f"reddit\t{name}\t{account.n_comments}")
        lines.extend(f"reddit_comment\t{name}\t{text}" for text in account.comments)
    for site in ("nytimes", "dailymail"):
        lines.extend(f"news\t{site}\t{c.text}" for c in world.news.sample(site))
    for src in sorted(world.social.following):
        lines.extend(
            f"follow\t{src}\t{dst}" for dst in sorted(world.social.following[src])
        )
    return "\n".join(lines)


def world_fingerprint(world: World) -> str:
    return hashlib.sha256(canonical_summary(world).encode("utf-8")).hexdigest()


def test_world_fingerprint_matches_golden():
    assert world_fingerprint(build_world(CONFIG)) == GOLDEN_SHA256


if __name__ == "__main__":
    print(world_fingerprint(build_world(CONFIG)))
