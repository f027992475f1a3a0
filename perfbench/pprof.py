"""Minimal reader for Go CPU profiles (gzipped pprof protobuf).

Only what the benchmark's layer ledger needs: every sample's CPU time and
the function names on its stack, innermost first. Field numbers follow
github.com/google/pprof/proto/profile.proto.
"""
import gzip

LAYER_PREFIX = "sdpcm/internal/"


def _varint(buf, i):
    shift = result = 0
    while True:
        b = buf[i]
        i += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, i
        shift += 7


def _fields(buf):
    """Yields (field number, wire type, value) over one message."""
    i, n = 0, len(buf)
    while i < n:
        key, i = _varint(buf, i)
        num, wt = key >> 3, key & 7
        if wt == 0:
            val, i = _varint(buf, i)
        elif wt == 1:
            val, i = int.from_bytes(buf[i:i + 8], "little"), i + 8
        elif wt == 2:
            ln, i = _varint(buf, i)
            val, i = buf[i:i + ln], i + ln
        elif wt == 5:
            val, i = int.from_bytes(buf[i:i + 4], "little"), i + 4
        else:
            raise ValueError(f"pprof: unsupported wire type {wt}")
        yield num, wt, val


def _ints(wt, val):
    """A repeated integer field arrives packed (wire type 2) or one by one."""
    if wt != 2:
        return [val]
    out, i = [], 0
    while i < len(val):
        v, i = _varint(val, i)
        out.append(v)
    return out


def samples(path):
    """Returns [(cpu_ns, [function name, innermost first])] for a CPU profile."""
    with open(path, "rb") as f:
        buf = gzip.decompress(f.read())
    strings, funcs, locs, raw = [], {}, {}, []
    for num, wt, val in _fields(buf):
        if num == 6:
            strings.append(val.decode("utf-8", "replace"))
        elif num == 5:
            fid = name = 0
            for fn, _, fv in _fields(val):
                if fn == 1:
                    fid = fv
                elif fn == 2:
                    name = fv
            funcs[fid] = name
        elif num == 4:
            lid, lines = 0, []
            for fn, _, fv in _fields(val):
                if fn == 1:
                    lid = fv
                elif fn == 4:
                    lines.extend(lv for ln, _, lv in _fields(fv) if ln == 1)
            # Inlined callees come first, the caller they were inlined into last.
            locs[lid] = lines
        elif num == 2:
            ids, values = [], []
            for fn, fwt, fv in _fields(val):
                if fn == 1:
                    ids.extend(_ints(fwt, fv))
                elif fn == 2:
                    values.extend(_ints(fwt, fv))
            raw.append((ids, values))
    out = []
    for ids, values in raw:
        stack = [strings[funcs[f]] for lid in ids for f in locs.get(lid, ())]
        # Value 0 is the sample count, value 1 the CPU nanoseconds.
        out.append((values[-1] if values else 0, stack))
    return out


def layer_of(stack):
    """The innermost sdpcm/internal/<module> on the stack, else 'runtime'."""
    for name in stack:
        if name.startswith(LAYER_PREFIX):
            return name[len(LAYER_PREFIX):].split("/", 1)[0].split(".", 1)[0]
    return "runtime"


def self_seconds(paths):
    """CPU seconds per layer summed over several profiles."""
    acc = {}
    for path in paths:
        for ns, stack in samples(path):
            layer = layer_of(stack)
            acc[layer] = acc.get(layer, 0.0) + ns / 1e9
    return acc
