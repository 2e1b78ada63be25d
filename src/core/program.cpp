#include "core/program.hpp"

#include <sstream>

#include "common/error.hpp"

namespace simt::core {

int KernelInfo::param_index(std::string_view name) const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const KernelInfo* Program::find_kernel(std::string_view name) const {
  for (const auto& k : kernels_) {
    if (k.name == name) {
      return &k;
    }
  }
  return nullptr;
}

const KernelInfo* Program::kernel_at_entry(std::uint32_t entry) const {
  for (const auto& k : kernels_) {
    if (k.entry == entry) {
      return &k;
    }
  }
  return nullptr;
}

const KernelInfo* Program::kernel_containing(std::uint32_t pc) const {
  // Kernels are recorded in source order, so regions have ascending
  // entries; the owner is the last kernel starting at or before pc.
  const KernelInfo* owner = nullptr;
  for (const auto& k : kernels_) {
    if (k.entry <= pc) {
      owner = &k;
    }
  }
  return owner;
}

std::vector<std::uint64_t> Program::encode() const {
  std::vector<std::uint64_t> out;
  out.reserve(instrs_.size());
  for (const auto& instr : instrs_) {
    out.push_back(isa::encode(instr));
  }
  return out;
}

Program Program::decode(const std::vector<std::uint64_t>& words) {
  std::vector<isa::Instr> instrs;
  instrs.reserve(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    auto instr = isa::decode(words[i]);
    if (!instr) {
      throw Error("malformed instruction word at pc " + std::to_string(i));
    }
    instrs.push_back(*instr);
  }
  return Program(std::move(instrs));
}

std::string Program::listing() const {
  // Invert the label map for address annotation.
  std::map<std::uint32_t, std::string> by_pc;
  for (const auto& [name, pc] : labels_) {
    by_pc[pc] = name;
  }
  std::ostringstream out;
  for (std::size_t pc = 0; pc < instrs_.size(); ++pc) {
    const auto it = by_pc.find(static_cast<std::uint32_t>(pc));
    if (it != by_pc.end()) {
      out << it->second << ":\n";
    }
    out << "  " << pc << ":\t" << isa::disassemble(instrs_[pc]) << "\n";
  }
  return out.str();
}

std::string kernel_metadata_text(const Program& program) {
  std::ostringstream out;
  for (const auto& k : program.kernels()) {
    out << "# .kernel " << k.name << " @" << k.entry << "\n";
    if (k.lockstep) {
      out << "# .lockstep\n";
    }
    for (const auto& p : k.params) {
      out << "# .param " << p.name << " "
          << (p.kind == KernelParam::Kind::Buffer ? "buffer" : "scalar")
          << "\n";
    }
    const auto emit_footprint = [&out, &k](const char* directive,
                                           const Footprint& fp) {
      out << "# " << directive << " " << k.params.at(fp.param).name;
      if (fp.per_thread) {
        // Per-thread form: "*stride" / "+extent" only when they differ
        // from the defaults, so the text round-trips exactly.
        out << "@tid";
        if (fp.stride != 1) {
          out << "*" << fp.stride;
        }
        if (fp.extent != 1) {
          out << "+" << fp.extent;
        }
      } else if (fp.extent != 0) {
        out << "+" << fp.extent;
      }
      out << "\n";
    };
    for (const auto& r : k.reads) {
      emit_footprint(".reads", r);
    }
    for (const auto& w : k.writes) {
      emit_footprint(".writes", w);
    }
    for (const auto& r : k.refs) {
      out << "# .ref @" << r.pc << " " << k.params.at(r.param).name << "+"
          << r.addend << "\n";
    }
  }
  return out.str();
}

namespace {

[[noreturn]] void meta_fail(const std::string& line, const std::string& why) {
  throw Error("bad kernel metadata line '" + line + "': " + why);
}

/// "name+extent" -> (name, extent); plain "name" -> (name, 0).
std::pair<std::string, std::int64_t> split_extent(const std::string& token,
                                                 const std::string& line) {
  const auto plus = token.find('+');
  if (plus == std::string::npos) {
    return {token, 0};
  }
  try {
    return {token.substr(0, plus), std::stoll(token.substr(plus + 1))};
  } catch (const std::exception&) {
    meta_fail(line, "malformed extent");
  }
}

/// "@N" -> N, with the documented simt::Error on corrupt sidecars (a bare
/// std::stoul would terminate tools that only catch simt::Error).
std::uint32_t at_number(const std::string& token, const std::string& line) {
  try {
    std::size_t consumed = 0;
    const unsigned long v = std::stoul(token.substr(1), &consumed);
    if (consumed + 1 != token.size() || v > 0xfffffffful) {
      meta_fail(line, "malformed @address");
    }
    return static_cast<std::uint32_t>(v);
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    meta_fail(line, "malformed @address");
  }
}

}  // namespace

std::vector<KernelInfo> parse_kernel_metadata(
    const std::vector<std::string>& lines) {
  std::vector<KernelInfo> kernels;
  for (const auto& raw : lines) {
    std::istringstream in(raw);
    std::string word;
    in >> word;
    if (word == "#") {
      in >> word;  // the directive follows the comment marker
    } else if (!word.empty() && word[0] == '#') {
      word = word.substr(1);
    }
    if (word.empty()) {
      continue;
    }
    if (word == ".kernel") {
      std::string name, at;
      if (!(in >> name >> at) || at.size() < 2 || at[0] != '@') {
        meta_fail(raw, ".kernel needs a name and an @entry");
      }
      KernelInfo k;
      k.name = name;
      k.entry = at_number(at, raw);
      kernels.push_back(std::move(k));
      continue;
    }
    if (kernels.empty()) {
      meta_fail(raw, "directive before any .kernel");
    }
    auto& k = kernels.back();
    if (word == ".lockstep") {
      k.lockstep = true;
    } else if (word == ".param") {
      std::string name, kind;
      if (!(in >> name >> kind) || (kind != "buffer" && kind != "scalar")) {
        meta_fail(raw, ".param needs a name and buffer|scalar");
      }
      k.params.push_back(
          {name, kind == "buffer" ? KernelParam::Kind::Buffer
                                  : KernelParam::Kind::Scalar});
    } else if (word == ".reads" || word == ".writes") {
      std::string token;
      if (!(in >> token)) {
        meta_fail(raw, word + " needs a parameter name");
      }
      auto [name, extent] = split_extent(token, raw);
      // Per-thread footprints carry the "@tid" marker (optionally
      // "@tid*stride") on the name part, e.g. "x@tid", "x@tid+window",
      // "in@tid*4+4"; strip the modifier back off.
      bool per_thread = false;
      std::int64_t stride = 1;
      const auto at = name.find('@');
      if (at != std::string::npos) {
        std::string modifier = name.substr(at);
        const auto star = modifier.find('*');
        if (star != std::string::npos) {
          try {
            std::size_t consumed = 0;
            stride = std::stoll(modifier.substr(star + 1), &consumed);
            if (consumed != modifier.size() - star - 1) {
              meta_fail(raw, "malformed footprint stride");
            }
          } catch (const Error&) {
            throw;
          } catch (const std::exception&) {
            meta_fail(raw, "malformed footprint stride");
          }
          if (stride <= 0 || stride > 0xffffffffll) {
            meta_fail(raw, "footprint stride must be a positive word count");
          }
          modifier.resize(star);
        }
        if (modifier != "@tid") {
          meta_fail(raw, "footprint modifier must be @tid");
        }
        per_thread = true;
        name.resize(at);
      }
      const int idx = k.param_index(name);
      if (idx < 0) {
        meta_fail(raw, "unknown parameter " + name);
      }
      // Re-establish what the assembler enforced: footprints apply to
      // buffer parameters, and an explicit extent is a positive word
      // count (0 is spelled by omitting the extent; a per-thread window
      // defaults to 1).
      if (k.params[idx].kind != KernelParam::Kind::Buffer) {
        meta_fail(raw, "footprint on scalar parameter " + name);
      }
      if (token.find('+') != std::string::npos &&
          (extent <= 0 || extent > 0xffffffffll)) {
        meta_fail(raw, "footprint extent must be a positive word count");
      }
      if (per_thread && extent == 0) {
        extent = 1;
      }
      Footprint fp{static_cast<std::uint32_t>(idx),
                   static_cast<std::uint32_t>(extent), per_thread,
                   static_cast<std::uint32_t>(stride)};
      (word == ".reads" ? k.reads : k.writes).push_back(fp);
    } else if (word == ".ref") {
      std::string at, token;
      if (!(in >> at >> token) || at.size() < 2 || at[0] != '@') {
        meta_fail(raw, ".ref needs @pc and param+addend");
      }
      const auto [name, addend] = split_extent(token, raw);
      const int idx = k.param_index(name);
      if (idx < 0) {
        meta_fail(raw, "unknown parameter " + name);
      }
      k.refs.push_back({at_number(at, raw), static_cast<std::uint32_t>(idx),
                        static_cast<std::int32_t>(addend)});
    } else {
      meta_fail(raw, "unknown directive " + word);
    }
  }
  return kernels;
}

}  // namespace simt::core
