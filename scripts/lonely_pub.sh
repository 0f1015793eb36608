#!/bin/sh
# Fails on a `pub` item in crates/*/src that no other file names.
#
# For every `pub fn|struct|enum|trait|const|type|static NAME` in
# crates/*/src, word-grep NAME over crates, tests, examples, src and
# e2e/src; an item found only in its own file is exported for nobody, so
# make it `pub(crate)`, `pub(super)` or private (and delete it if the
# compiler then calls it dead). A common name can match elsewhere, so
# this is a lower bound. mether-lib is the paper's user-facing library
# and is judged by its examples instead. Run from the repository root.

# Deliberate API that no other file happens to name, one name a line.
ALLOW='
from_raw
TableStats
Transmission
from_secs_f64
read_addr
Foreground
Inbox
'
# from_raw:      VAddr::from_raw decodes the address word VAddr::raw encodes.
# TableStats:    the type PageTable::stats returns.
# Transmission:  the type EtherSim::transmit returns.
# from_secs_f64: SimDuration's float constructor, beside as_secs_f64.
# read_addr:     DsmOp's constructor from an encoded address.
# Foreground:    the guard Inbox::fg_enter returns.
# Inbox:         the type Endpoint::inbox returns.

lonely=$(
    grep -rnoE '^\s*pub (fn|struct|enum|trait|const|type|static) [A-Za-z_][A-Za-z0-9_]*' \
        crates/*/src --include='*.rs' | grep -v '^crates/lib/' |
    while IFS=: read -r file line decl; do
        name=${decl##* }
        if echo "$ALLOW" | grep -qx "$name"; then
            continue
        fi
        if ! grep -rlw -- "$name" crates tests examples src e2e/src | grep -qvx "$file"; then
            echo "$file:$line: pub $name is named in no other file"
        fi
    done
)
if [ -n "$lonely" ]; then
    echo "$lonely"
    exit 1
fi
