// Two-pass assembler for the SIMT processor's PTX-inspired assembly.
//
// Syntax (one instruction per line; comments with //, ; or #):
//
//   .equ N 64                 ; named constant
//   entry:                    ; label
//       movsr %r0, %tid
//       movi  %r1, 0x10
//       @p0 add %r2, %r1, %r0 ; guarded execution (@p0 / @!p0 .. @p3)
//       setp.lt %p0, %r0, %r1
//       lds  %r3, [%r2 + 16]  ; shared-memory load, word addressed
//       sts  [%r2], %r3       ; offset defaults to 0
//       loopi 10, loop_end    ; zero-overhead loop over [next, loop_end)
//       ...
//   loop_end:
//       brp  %p0, entry       ; branch if any active thread's p0 is set
//       exit
//
// Kernel ABI metadata directives separate code from launch arguments:
//
//   .kernel vecadd            ; entry point + metadata scope (also a label)
//   .param a buffer           ; positional parameter (buffer | scalar)
//   .param b buffer
//   .param c buffer
//   .reads a                  ; declared input footprint (whole bound buffer)
//   .reads b+16               ;   ... or the first 16 words only
//   .writes c                 ; declared output footprint
//   .lockstep                 ; (optional) threads coordinate in-launch:
//                             ;   one core, one round, or the launch throws
//       movsr %r0, %tid
//       lds %r1, [%r0 + $a]   ; $param: immediate patched at launch time
//       lds %r2, [%r0 + $b + 4]
//       add %r3, %r1, %r2
//       sts [%r0 + $c], %r3
//       exit
//
// `$param` references assemble to relocation records (core::ParamRef); the
// runtime loader patches the bound value into the immediate at launch, so
// the module is assembled exactly once no matter how many argument sets it
// is launched with. Sources without directives keep the legacy behavior:
// no parameters, addresses baked into the text.
//
// Pass 1 resolves labels to instruction addresses; pass 2 emits decoded
// instructions. All diagnostics carry the source line number.
#pragma once

#include <string>
#include <string_view>

#include "core/program.hpp"

namespace simt::assembler {

/// Assemble a full program. Throws simt::Error with "line N: ..." context
/// on any syntax or semantic problem.
core::Program assemble(std::string_view source);

}  // namespace simt::assembler
