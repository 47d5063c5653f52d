"""``repro.store`` — the succinct block-compressed CSR container.

Gap/delta-encoded, varint-packed adjacency grouped into fixed-size
vertex blocks behind a fixed-width offset index, decoded in full on
load (see DESIGN.md §13 and :mod:`repro.store.format` for the exact
layout).
"""

from repro.store.format import (
    FORMAT_VERSION,
    HEADER_STRUCT,
    MAGIC,
    STORAGE_TAG,
    StoreHeader,
    pack_header,
    unpack_header,
)
from repro.store.scsr import (
    DEFAULT_BLOCK_SIZE,
    CompressedCSR,
    StoreInfo,
    load_scsr,
    open_scsr,
    save_scsr,
)
from repro.store.varint import (
    MAX_VARINT_BYTES,
    decode_varints,
    encode_varints,
    varint_lengths,
    varint_offsets,
    zigzag_decode,
    zigzag_encode,
)
