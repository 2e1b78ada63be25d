// simt-dis: disassemble an I-MEM hex image (as produced by simt-as).
//
// `#`-prefixed lines in the image are the kernel ABI metadata sidecar
// simt-as emits (.kernel/.param/.reads/.writes facts plus the $param
// relocation sites). They are parsed back into the kernel table and printed
// ahead of the disassembly; relocation sites are annotated in place, so the
// round trip source -> simt-as -> simt-dis preserves the ABI contract.
//
// usage: simt-dis <image.hex>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "common/error.hpp"

namespace {

const char* kind_name(simt::core::KernelParam::Kind k) {
  return k == simt::core::KernelParam::Kind::Buffer ? "buffer" : "scalar";
}

void print_kernel_table(const std::vector<simt::core::KernelInfo>& kernels) {
  for (const auto& k : kernels) {
    std::printf("kernel %s @%u%s\n", k.name.c_str(), k.entry,
                k.lockstep ? " (lockstep)" : "");
    for (std::size_t i = 0; i < k.params.size(); ++i) {
      std::printf("  param %zu: %s %s\n", i, k.params[i].name.c_str(),
                  kind_name(k.params[i].kind));
    }
    const auto print_footprint = [&k](const char* label,
                                      const simt::core::Footprint& fp) {
      const char* name = k.params.at(fp.param).name.c_str();
      if (fp.per_thread && fp.stride != 1) {
        std::printf("  %s %s (%u word%s per thread, stride %u)\n", label,
                    name, fp.extent, fp.extent == 1 ? "" : "s", fp.stride);
      } else if (fp.per_thread) {
        std::printf("  %s %s (%u word%s per thread)\n", label, name,
                    fp.extent, fp.extent == 1 ? "" : "s");
      } else if (fp.extent != 0) {
        std::printf("  %s %s (first %u words)\n", label, name, fp.extent);
      } else {
        std::printf("  %s %s (whole buffer)\n", label, name);
      }
    };
    for (const auto& r : k.reads) {
      print_footprint("reads ", r);
    }
    for (const auto& w : k.writes) {
      print_footprint("writes", w);
    }
    std::printf("  %zu relocation site(s)\n", k.refs.size());
  }
  if (!kernels.empty()) {
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: simt-dis <image.hex>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "simt-dis: cannot open %s\n", argv[1]);
    return 1;
  }
  std::vector<std::uint64_t> words;
  std::vector<std::string> meta_lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      meta_lines.push_back(line);
      continue;
    }
    words.push_back(std::stoull(line, nullptr, 16));
  }
  try {
    const auto kernels = simt::core::parse_kernel_metadata(meta_lines);
    print_kernel_table(kernels);

    // Annotations: kernel entries by address, relocation sites by pc.
    std::map<std::uint32_t, std::string> entry_names;
    std::map<std::uint32_t, std::string> ref_notes;
    for (const auto& k : kernels) {
      entry_names[k.entry] = k.name;
      for (const auto& r : k.refs) {
        std::string note = "  ; <- $";
        note += k.params.at(r.param).name;
        if (r.addend != 0) {
          note += "+";
          note += std::to_string(r.addend);
        }
        ref_notes[r.pc] = std::move(note);
      }
    }

    const auto program = simt::core::Program::decode(words);
    for (std::size_t pc = 0; pc < program.size(); ++pc) {
      const auto entry = entry_names.find(static_cast<std::uint32_t>(pc));
      if (entry != entry_names.end()) {
        std::printf("%s:\n", entry->second.c_str());
      }
      const auto note = ref_notes.find(static_cast<std::uint32_t>(pc));
      std::printf("%4zu:  %016llx  %s%s\n", pc,
                  static_cast<unsigned long long>(words[pc]),
                  simt::isa::disassemble(program.at(pc)).c_str(),
                  note != ref_notes.end() ? note->second.c_str() : "");
    }
    return 0;
  } catch (const simt::Error& e) {
    std::fprintf(stderr, "simt-dis: %s\n", e.what());
    return 1;
  }
}
