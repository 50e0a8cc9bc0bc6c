#!/bin/sh
# doc_lint -- fail if the reference docs rot behind the code.
#
# Four contracts, all enforced as the `doc_lint` ctest:
#
#  1. src/obs/names.h is the single source of truth for metric and span
#     names; every quoted dotted name in it must appear verbatim in
#     docs/OBSERVABILITY.md (the instrument reference) or
#     docs/RECOVERY.md (the recovery-pipeline walkthrough).
#  2. every field of RaeOptions (src/rae/supervisor.h) -- the recovery
#     pipeline's knobs -- must appear verbatim in docs/RECOVERY.md, so a
#     knob cannot be added or renamed without the document that tells
#     operators how to tune it.
#  3. every field of CrashxOptions and FuzzOptions (src/crashx/crashx.h)
#     -- the crash explorer's knobs -- must appear verbatim in
#     docs/CRASHX.md, same deal.
#  4. every worker-count knob (any `*_workers` field of BaseFsOptions or
#     RaeOptions -- all of which accept 0 = auto) must appear verbatim in
#     docs/RECOVERY.md, which owns the autotuning story. ShadowConfig has
#     no worker knob: the shadow replays sequentially.
#
# Run from anywhere:
#
#   tools/doc_lint.sh [repo-root]
set -u

root="${1:-$(dirname "$0")/..}"
names_h="$root/src/obs/names.h"
obs_doc="$root/docs/OBSERVABILITY.md"
recovery_doc="$root/docs/RECOVERY.md"
sup_h="$root/src/rae/supervisor.h"
crashx_doc="$root/docs/CRASHX.md"
crashx_h="$root/src/crashx/crashx.h"

for f in "$names_h" "$obs_doc" "$recovery_doc" "$sup_h" "$crashx_doc" "$crashx_h"; do
  if [ ! -f "$f" ]; then
    echo "doc_lint: missing $f" >&2
    exit 1
  fi
done

missing=0

# --- contract 1: observability names --------------------------------------
# Extract every "a.b" / "a.b.c" string literal from names.h.
names=$(grep -o '"[a-z_]*\.[a-z_.]*"' "$names_h" | tr -d '"' | sort -u)
if [ -z "$names" ]; then
  echo "doc_lint: extracted no names from $names_h (regex rotted?)" >&2
  exit 1
fi

for name in $names; do
  if ! grep -qF "$name" "$obs_doc" && ! grep -qF "$name" "$recovery_doc"; then
    echo "doc_lint: '$name' (src/obs/names.h) is documented in neither" \
         "docs/OBSERVABILITY.md nor docs/RECOVERY.md" >&2
    missing=$((missing + 1))
  fi
done
total=$(echo "$names" | wc -l)

# --- contract 2: RaeOptions recovery knobs --------------------------------
# Field names of struct RaeOptions: strip comments, normalize
# initializers away, keep `Type name;` member declarations (enumerator
# lines have no type token before the name, so they drop out).
knobs=$(sed -n '/^struct RaeOptions {/,/^};/p' "$sup_h" \
  | sed 's,//.*,,' \
  | sed 's/=.*/;/' \
  | grep -E '^[ \t]*[A-Za-z_][A-Za-z0-9_:<>, ]*[ \t][a-z_][a-z0-9_]*[ \t]*;' \
  | sed -E 's/^.*[ \t]([a-z_][a-z0-9_]*)[ \t]*;.*$/\1/' \
  | sort -u)
if [ -z "$knobs" ]; then
  echo "doc_lint: extracted no RaeOptions fields from $sup_h (regex rotted?)" >&2
  exit 1
fi

for knob in $knobs; do
  if ! grep -qF "$knob" "$recovery_doc"; then
    echo "doc_lint: RaeOptions::$knob (src/rae/supervisor.h) is not" \
         "documented in docs/RECOVERY.md" >&2
    missing=$((missing + 1))
  fi
done
ktotal=$(echo "$knobs" | wc -l)

# --- contract 3: crashx explorer/fuzzer knobs -----------------------------
# Same extraction as contract 2, over both option structs.
cxknobs=$( (sed -n '/^struct CrashxOptions {/,/^};/p' "$crashx_h"; \
            sed -n '/^struct FuzzOptions {/,/^};/p' "$crashx_h") \
  | sed 's,//.*,,; s,///.*,,' \
  | sed 's/=.*/;/' \
  | grep -E '^[ \t]*[A-Za-z_][A-Za-z0-9_:<>, ]*[ \t][a-z_][a-z0-9_]*[ \t]*;' \
  | sed -E 's/^.*[ \t]([a-z_][a-z0-9_]*)[ \t]*;.*$/\1/' \
  | sort -u)
if [ -z "$cxknobs" ]; then
  echo "doc_lint: extracted no CrashxOptions/FuzzOptions fields from $crashx_h (regex rotted?)" >&2
  exit 1
fi

for knob in $cxknobs; do
  if ! grep -qF "$knob" "$crashx_doc"; then
    echo "doc_lint: crashx knob '$knob' (src/crashx/crashx.h) is not" \
         "documented in docs/CRASHX.md" >&2
    missing=$((missing + 1))
  fi
done
cxtotal=$(echo "$cxknobs" | wc -l)

# --- contract 4: worker-count / autotune knobs ----------------------------
# Any `*_workers` field of BaseFsOptions (RaeOptions is already covered by
# contract 2) must be documented in docs/RECOVERY.md.
base_h="$root/src/basefs/base_fs.h"
wknobs=$(sed -n '/^struct BaseFsOptions {/,/^};/p' "$base_h" \
  | sed 's,//.*,,; s,///.*,,' \
  | sed 's/=.*/;/' \
  | grep -E '^[ \t]*[A-Za-z_][A-Za-z0-9_:<>, ]*[ \t][a-z_]*_workers[ \t]*;' \
  | sed -E 's/^.*[ \t]([a-z_]*_workers)[ \t]*;.*$/\1/' \
  | sort -u)
if [ -z "$wknobs" ]; then
  echo "doc_lint: extracted no *_workers fields from $base_h (regex rotted?)" >&2
  exit 1
fi

for knob in $wknobs; do
  if ! grep -qF "$knob" "$recovery_doc"; then
    echo "doc_lint: worker knob '$knob' (BaseFsOptions) is not" \
         "documented in docs/RECOVERY.md" >&2
    missing=$((missing + 1))
  fi
done
wtotal=$(echo "$wknobs" | wc -l)

if [ "$missing" -ne 0 ]; then
  echo "doc_lint: $missing undocumented (of $total obs names + $ktotal knobs + $cxtotal crashx knobs + $wtotal worker knobs)" >&2
  exit 1
fi
echo "doc_lint: all $total observability names, $ktotal recovery knobs, $cxtotal crashx knobs, and $wtotal worker knobs documented"
exit 0
