"""Set-up cost in a fresh interpreter: import stephen_kit, parse and validate.

Reads {"presentations": {name: text}, "words": [[name, text], ...]} as JSON
on stdin and prints the seconds from just before the import to the end of
parsing.  The benchmark runs this with src/ on PYTHONPATH; run.py also
imports prepare() to parse the same inputs in its own process.
"""

import json
import sys
import time


def prepare(sk, texts: dict, words) -> tuple[dict, list]:
    """Parse and validate presentations, then parse words against them."""
    presentations = {}
    for name, source in texts.items():
        p = sk.parse_presentation(source)
        if len(p.relations) == 1 and sk.is_adian(p):
            sk.classify_finiteness(p)
        presentations[name] = p
    parsed = [sk.parse_word(w, presentations[name].alphabet) for name, w in words]
    return presentations, parsed


def main() -> None:
    job = json.load(sys.stdin)
    start = time.perf_counter()
    import stephen_kit

    prepare(stephen_kit, job["presentations"], job["words"])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
