"""Content-addressed caching of band structures and hashing of run configs.

The cache is advisory: a missing, unreadable or mismatched entry means
recompute, never a wrong answer.  Keys are SHA-256 of the canonical JSON of
every numeric input, the potential in its exact `FourierMap.to_text` form,
which the entry also stores, and `spectrum.UNION_METHOD`, so an entry built
by an earlier union method is never served.  Entries embed the key and a
checksum of their canonical payload, so a changed digit is detected as well
as a renamed or unparseable file.  Entries are written through a unique temporary file and
renamed into place, so concurrent writers of one key never share a partial
file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from . import __version__
from .errors import CacheCorruptionError
from .fourier import FourierMap
from .spectrum import UNION_METHOD, BandStructure


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:24]


def band_structure_key(lam, f, pq, theta_samples):
    return content_hash({
        "kind": "band_structure",
        "version": __version__,
        "union": UNION_METHOD,
        "lambda": float(lam),
        "potential": f.to_text(),
        "p": pq[0], "q": pq[1],
        "theta_samples": theta_samples,
    })


def store_band_structure(cache_dir, key, bs):
    os.makedirs(cache_dir, exist_ok=True)
    payload = {
        "key": key,
        "version": __version__,
        "approximant": list(bs.approximant),
        "lambda": bs.lam,
        "bands": [[a, b] for a, b in bs.bands],
        "theta_grid": bs.theta_grid,
        "bands_below": list(bs.bands_below),
        "flagged": bs.flagged,
        "potential": bs.potential.to_text(),
    }
    payload["checksum"] = content_hash(payload)
    path = os.path.join(cache_dir, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=key + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_json(payload))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_band_structure(cache_dir, key, strict=False):
    """None on any miss or damage unless strict, which raises on damage: the
    errors a bad file, payload, field or potential text raises; no other."""
    path = os.path.join(cache_dir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise CacheCorruptionError(f"payload of {path} is not a JSON object")
        if payload.get("key") != key:
            raise CacheCorruptionError(f"key mismatch in {path}")
        if payload.pop("checksum", None) != content_hash(payload):
            raise CacheCorruptionError(f"checksum mismatch in {path}")
        return BandStructure(
            approximant=tuple(payload["approximant"]),
            lam=payload["lambda"],
            potential=FourierMap.from_text(payload["potential"]),
            bands=tuple((a, b) for a, b in payload["bands"]),
            theta_grid=payload["theta_grid"],
            bands_below=tuple(payload["bands_below"]),
            flagged=payload["flagged"],
        )
    except CacheCorruptionError:
        if strict:
            raise
        return None
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        if strict:
            raise CacheCorruptionError(f"unreadable cache entry {path}: {exc}") from exc
        return None


def cache_stats(cache_dir):
    if not os.path.isdir(cache_dir):
        return {"entries": 0, "bytes": 0}
    names = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
    total = sum(os.path.getsize(os.path.join(cache_dir, n)) for n in names)
    return {"entries": len(names), "bytes": total}


def cache_verify(cache_dir):
    """Raises CacheCorruptionError on the first damaged entry."""
    if not os.path.isdir(cache_dir):
        return 0
    count = 0
    for name in sorted(os.listdir(cache_dir)):
        if not name.endswith(".json"):
            continue
        key = name[:-5]
        load_band_structure(cache_dir, key, strict=True)
        count += 1
    return count


def cache_clear(cache_dir):
    if not os.path.isdir(cache_dir):
        return 0
    count = 0
    for name in os.listdir(cache_dir):
        if name.endswith(".json"):
            os.remove(os.path.join(cache_dir, name))
            count += 1
    return count
