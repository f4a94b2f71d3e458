#!/usr/bin/env bash
# A/A check: two interleaved sets of N full runs (every workload, tracing
# off, seeds 1..N) of the same commit, judged the way the driver judges the
# benchmark. Prints, per end-to-end metric × workload, both medians, each
# set's run-to-run spread ((Q3 − Q1) / median, as Python's
# statistics.quantiles(n=4) gives them) and the gap between the two medians
# against the bound BENCHMARK.json declares. Exits non-zero when a spread
# (`setup_s` excepted) or a gap breaches its bound or an operation failed,
# and writes the table between the `aa` markers of BASELINE.md.
#
#   benchmark/aa.sh N [--seconds S]
set -euo pipefail

n="${1:?usage: benchmark/aa.sh N [--seconds S]}"
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out/aa"
rm -rf "$out"
mkdir -p "$out"

workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")
for i in $(seq 1 "$n"); do
    # Alternate which set goes first, so drift of the host hits both alike.
    if (( i % 2 )); then order="A B"; else order="B A"; fi
    for set in $order; do
        for w in $workloads; do
            echo "aa: run $i/$n set $set $w" >&2
            # A failed run still prints its result line; the table counts it.
            "$root/benchmark/run.sh" --workload "$w" --seed "$i" --trace 0 "$@" \
                | tail -n 1 | sed "s/^/$w /" >> "$out/$set.jsonl" || true
        done
    done
done

python3 - "$root" "$out" "$n" <<'PY'
import json, statistics, sys
root, out, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
decl = json.load(open(f"{root}/BENCHMARK.json"))
runs = {s: {} for s in "AB"}
failed = 0
for s in "AB":
    for line in open(f"{out}/{s}.jsonl"):
        w, _, obj = line.partition(" ")
        r = json.loads(obj)
        failed += r["failed"] + (0 if r["correct"] else 1)
        for m, v in r["metrics"].items():
            runs[s].setdefault((w, m), []).append(v["value"])
rows, breaches = [], []
for e in decl["end_to_end"]:
    for w in (x["name"] for x in decl["workloads"]):
        a, b = runs["A"].get((w, e["name"]), []), runs["B"].get((w, e["name"]), [])
        if len(a) < 2 or len(b) < 2:
            breaches.append(f"{e['name']} @ {w}: fewer than 2 runs per set")
            continue
        spreads = []
        for v in (a, b):
            q1, _, q3 = statistics.quantiles(v, n=4)
            spreads.append((q3 - q1) / statistics.median(v))
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma * (1 if e["better"] == "lower" else -1)
        ok = (max(spreads) <= e["bound"] or e["name"] == "setup_s") and worse <= e["bound"]
        if not ok:
            breaches.append(f"{e['name']} @ {w}: spreads {spreads[0]:.3f} {spreads[1]:.3f}, "
                            f"gap {worse:+.3f}, bound {e['bound']}")
        rows.append(f"| {e['name']} | {w} | {ma:.5g} | {mb:.5g} | {spreads[0]:.3f} | {spreads[1]:.3f} | "
                    f"{worse:+.3f} | {e['bound']} | {'ok' if ok else 'BREACH'} |")
table = "\n".join(
    [f"Two interleaved sets of {n} runs per workload, tracing off; {failed} failed operations.", "",
     "| metric | workload | median A | median B | spread A | spread B | gap B vs A (+ = worse) | bound | |",
     "|---|---|---|---|---|---|---|---|---|"] + rows)
print(table)
path = f"{root}/benchmark/BASELINE.md"
try:
    text = open(path).read()
    head, _, rest = text.partition("<!-- aa:begin -->")
    _, _, tail = rest.partition("<!-- aa:end -->")
    if rest:
        open(path, "w").write(f"{head}<!-- aa:begin -->\n{table}\n<!-- aa:end -->{tail}")
except FileNotFoundError:
    pass
for b in breaches:
    print("breach:", b, file=sys.stderr)
sys.exit(1 if breaches or failed else 0)
PY
