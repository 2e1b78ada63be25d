#include "asm/assembler.hpp"

#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "isa/isa.hpp"

namespace simt::assembler {
namespace {

using isa::Format;
using isa::Guard;
using isa::Instr;
using isa::Opcode;

struct Token {
  enum class Kind { Ident, Reg, Pred, Special, Number, Param, Punct, End };
  Kind kind;
  std::string text;
  std::int64_t number = 0;
  bool negated = false;   ///< a '-' sign preceded an identifier operand
  bool has_sign = false;  ///< an explicit '+'/'-' preceded the token
};

[[noreturn]] void fail(int line, const std::string& msg) {
  throw Error("line " + std::to_string(line) + ": " + msg);
}

/// Strip comments and whitespace; returns the significant payload.
std::string strip(const std::string& raw) {
  std::string s = raw;
  for (const char* marker : {"//", ";", "#"}) {
    if (const auto pos = s.find(marker); pos != std::string::npos) {
      s = s.substr(0, pos);
    }
  }
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

class Lexer {
 public:
  Lexer(std::string_view text, int line) : text_(text), line_(line) {}

  Token next() {
    if (peeked_) {
      peeked_ = false;
      return lookahead_;
    }
    return lex();
  }

  /// One-token lookahead (does not consume).
  const Token& peek() {
    if (!peeked_) {
      lookahead_ = lex();
      peeked_ = true;
    }
    return lookahead_;
  }

 private:
  Token lex() {
    skip_ws();
    if (pos_ >= text_.size()) {
      return {Token::Kind::End, ""};
    }
    const char c = text_[pos_];
    if (c == '%') {
      return lex_register();
    }
    if (c == '$') {
      return lex_param();
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      return lex_number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
        c == '@' || c == '!') {
      return lex_ident();
    }
    if (c == ',' || c == '[' || c == ']' || c == ':' || c == '*') {
      ++pos_;
      return {Token::Kind::Punct, std::string(1, c)};
    }
    fail(line_, std::string("unexpected character '") + c + "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  Token lex_register() {
    std::size_t start = pos_++;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    std::string t(text_.substr(start, pos_ - start));
    if (t.size() >= 3 && t[1] == 'r') {
      // %rNN
      const std::string digits = t.substr(2);
      if (digits.find_first_not_of("0123456789") == std::string::npos) {
        const long v = std::stol(digits);
        if (v < 0 || v >= isa::kMaxRegsPerThread) {
          fail(line_, "register index out of range: " + t);
        }
        return {Token::Kind::Reg, t, v};
      }
    }
    if (t.size() >= 3 && t[1] == 'p') {
      const std::string digits = t.substr(2);
      if (!digits.empty() &&
          digits.find_first_not_of("0123456789") == std::string::npos) {
        const long v = std::stol(digits);
        if (v < 0 || v >= isa::kNumPredRegs) {
          fail(line_, "predicate index out of range: " + t);
        }
        return {Token::Kind::Pred, t, v};
      }
    }
    if (isa::special_from_name(t)) {
      return {Token::Kind::Special, t};
    }
    fail(line_, "unknown register token: " + t);
  }

  Token lex_param() {
    ++pos_;  // '$'
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail(line_, "'$' must be followed by a parameter name");
    }
    return {Token::Kind::Param, std::string(text_.substr(start, pos_ - start))};
  }

  Token lex_number() {
    bool negative = false;
    bool saw_sign = false;
    if (text_[pos_] == '-' || text_[pos_] == '+') {
      negative = text_[pos_] == '-';
      saw_sign = true;
      ++pos_;
      skip_ws();  // allow "[%r1 + 4]" spacing
    }
    // A signed symbolic constant, e.g. "[%r1 + BASE]" or "[%r1 + $a]".
    if (pos_ < text_.size() && text_[pos_] == '$') {
      if (negative) {
        fail(line_, "'-$param' is not supported (parameters bind positive "
                    "word addresses)");
      }
      Token t = lex_param();
      t.has_sign = saw_sign;
      return t;
    }
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      Token t = lex_ident();
      t.negated = negative;
      t.has_sign = saw_sign;
      return t;
    }
    std::size_t start = pos_;
    int base = 10;
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
      base = 16;
      pos_ += 2;
    }
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])))) {
      ++pos_;
    }
    const std::string t(text_.substr(start, pos_ - start));
    try {
      std::size_t consumed = 0;
      std::int64_t v = std::stoll(t, &consumed, base);
      if (consumed != t.size() || t.empty()) {
        fail(line_, "malformed number: " + t);
      }
      if (negative) {
        v = -v;
      }
      return {Token::Kind::Number, t, v, false, saw_sign};
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      fail(line_, "malformed number: " + t);
    }
  }

  Token lex_ident() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.' || text_[pos_] == '@' ||
            text_[pos_] == '!')) {
      ++pos_;
    }
    return {Token::Kind::Ident, std::string(text_.substr(start, pos_ - start))};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
  Token lookahead_{Token::Kind::End, ""};
  bool peeked_ = false;
};

/// A parsed source line that emits one instruction.
struct PendingInstr {
  int line;
  Instr instr;
  std::string target_label;  ///< branch/loop target to resolve in pass 2
  bool needs_label = false;
  int param = -1;   ///< `$param` index referenced by the immediate, if any
  int kernel = -1;  ///< enclosing .kernel region at parse time
};

class AsmContext {
 public:
  core::Program assemble(std::string_view source) {
    std::istringstream in{std::string(source)};
    std::string raw;
    int line = 0;
    while (std::getline(in, raw)) {
      ++line;
      std::string s = strip(raw);
      while (!s.empty()) {
        // Leading "name:" label definitions (several may share a line).
        const auto colon = s.find(':');
        if (colon != std::string::npos &&
            s.find_first_of(" \t,[") > colon) {
          const std::string name = strip(s.substr(0, colon));
          define_label(line, name);
          s = strip(s.substr(colon + 1));
          continue;
        }
        break;
      }
      if (s.empty()) {
        continue;
      }
      if (s[0] == '.') {
        parse_directive(line, s);
        continue;
      }
      parse_instruction(line, s);
    }
    resolve();
    std::vector<Instr> instrs;
    instrs.reserve(pending_.size());
    for (auto& p : pending_) {
      instrs.push_back(p.instr);
    }
    core::Program prog(std::move(instrs));
    prog.set_labels(labels_);
    prog.set_kernels(std::move(kernels_));
    return prog;
  }

 private:
  void define_label(int line, const std::string& name) {
    if (name.empty() ||
        (!std::isalpha(static_cast<unsigned char>(name[0])) &&
         name[0] != '_')) {
      fail(line, "bad label name: '" + name + "'");
    }
    if (labels_.count(name)) {
      fail(line, "duplicate label: " + name);
    }
    labels_[name] = static_cast<std::uint32_t>(pending_.size());
  }

  core::KernelInfo& current_kernel(int line, const char* directive) {
    if (kernels_.empty()) {
      fail(line, std::string(directive) + " before any .kernel directive");
    }
    return kernels_.back();
  }

  /// Footprint operand: "name" (whole buffer), "name+extent" (leading
  /// words), or the per-thread forms "name@tid" / "name@tid+window" /
  /// "name@tid*stride[+window]" (thread t touches [base + t*stride,
  /// base + t*stride + window), default stride 1, default window 1 --
  /// "in@tid*4+4" is the chunked [t*4, (t+1)*4) shape).
  core::Footprint parse_footprint(int line, Lexer& lex, const char* what) {
    Token name = lex.next();
    if (name.kind != Token::Kind::Ident) {
      fail(line, std::string(what) + " needs a parameter name");
    }
    // The lexer keeps '@' inside identifiers (guard syntax), so "x@tid"
    // arrives as one token; split the per-thread marker back off.
    bool per_thread = false;
    const auto at = name.text.find('@');
    if (at != std::string::npos) {
      if (name.text.substr(at) != "@tid") {
        fail(line, std::string(what) + " footprint modifier must be @tid, "
                   "got '" + name.text.substr(at) + "'");
      }
      per_thread = true;
      name.text.resize(at);
    }
    auto& k = current_kernel(line, what);
    const int idx = k.param_index(name.text);
    if (idx < 0) {
      fail(line, std::string(what) + " of undeclared parameter '" +
                 name.text + "'");
    }
    if (k.params[idx].kind != core::KernelParam::Kind::Buffer) {
      fail(line, std::string(what) + " footprints apply to buffer "
                 "parameters; '" + name.text + "' is a scalar");
    }
    std::int64_t stride = 1;
    if (lex.peek().kind == Token::Kind::Punct && lex.peek().text == "*") {
      if (!per_thread) {
        fail(line, std::string(what) + " stride needs the @tid modifier");
      }
      lex.next();  // '*'
      stride = immediate(line, lex.next());
      if (stride <= 0 || stride > 0xffffffffll) {
        fail(line, std::string(what) + " stride must be a positive word "
                   "count");
      }
    }
    std::int64_t extent = per_thread ? 1 : 0;
    if (lex.peek().kind != Token::Kind::End) {
      extent = immediate(line, lex.next());
      if (extent <= 0 || extent > 0xffffffffll) {
        fail(line, std::string(what) + " extent must be a positive word "
                   "count");
      }
    }
    return {static_cast<std::uint32_t>(idx),
            static_cast<std::uint32_t>(extent), per_thread,
            static_cast<std::uint32_t>(stride)};
  }

  void parse_directive(int line, const std::string& s) {
    Lexer lex(s, line);
    const Token head = lex.next();
    if (head.text == ".equ") {
      const Token name = lex.next();
      const Token value = lex.next();
      if (name.kind != Token::Kind::Ident) {
        fail(line, ".equ needs a name");
      }
      std::int64_t v;
      if (value.kind == Token::Kind::Number) {
        v = value.number;
      } else if (value.kind == Token::Kind::Ident && equs_.count(value.text)) {
        v = equs_.at(value.text);
      } else {
        fail(line, ".equ needs a numeric value");
      }
      if (equs_.count(name.text)) {
        fail(line, "duplicate .equ: " + name.text);
      }
      equs_[name.text] = v;
      return;
    }
    if (head.text == ".kernel") {
      const Token name = lex.next();
      if (name.kind != Token::Kind::Ident) {
        fail(line, ".kernel needs a name");
      }
      for (const auto& k : kernels_) {
        if (k.name == name.text) {
          fail(line, "duplicate .kernel: " + name.text);
        }
      }
      // The kernel name doubles as an entry label so Module::kernel(name)
      // resolves it like any other entry point.
      define_label(line, name.text);
      core::KernelInfo k;
      k.name = name.text;
      k.entry = static_cast<std::uint32_t>(pending_.size());
      kernels_.push_back(std::move(k));
      expect_end(line, lex);
      return;
    }
    if (head.text == ".param") {
      const Token name = lex.next();
      const Token kind = lex.next();
      if (name.kind != Token::Kind::Ident || kind.kind != Token::Kind::Ident) {
        fail(line, ".param needs a name and a kind (buffer | scalar)");
      }
      auto& k = current_kernel(line, ".param");
      if (k.param_index(name.text) >= 0) {
        fail(line, "duplicate .param: " + name.text);
      }
      core::KernelParam::Kind pk;
      if (kind.text == "buffer") {
        pk = core::KernelParam::Kind::Buffer;
      } else if (kind.text == "scalar") {
        pk = core::KernelParam::Kind::Scalar;
      } else {
        fail(line, ".param kind must be buffer or scalar, got '" +
                   kind.text + "'");
      }
      k.params.push_back({name.text, pk});
      expect_end(line, lex);
      return;
    }
    if (head.text == ".lockstep") {
      current_kernel(line, ".lockstep").lockstep = true;
      expect_end(line, lex);
      return;
    }
    if (head.text == ".reads") {
      auto& k = current_kernel(line, ".reads");
      k.reads.push_back(parse_footprint(line, lex, ".reads"));
      expect_end(line, lex);
      return;
    }
    if (head.text == ".writes") {
      auto& k = current_kernel(line, ".writes");
      k.writes.push_back(parse_footprint(line, lex, ".writes"));
      expect_end(line, lex);
      return;
    }
    fail(line, "unknown directive: " + head.text);
  }

  std::int64_t immediate(int line, const Token& t) {
    if (t.kind == Token::Kind::Number) {
      return t.number;
    }
    if (t.kind == Token::Kind::Ident) {
      const auto it = equs_.find(t.text);
      if (it != equs_.end()) {
        return t.negated ? -it->second : it->second;
      }
      fail(line, "unknown constant: " + t.text);
    }
    fail(line, "expected an immediate, got '" + t.text + "'");
  }

  /// Record a `$param` reference on the instruction being parsed. The
  /// numeric parts of the expression stay in the immediate as the addend.
  /// Kernels are sequential source regions, so the instruction belongs to
  /// the most recently opened `.kernel`.
  void note_param(int line, PendingInstr& p, const Token& t) {
    if (kernels_.empty()) {
      fail(line, "'$" + t.text + "' outside a .kernel region");
    }
    const auto& k = kernels_.back();
    const int idx = k.param_index(t.text);
    if (idx < 0) {
      fail(line, "undeclared parameter '$" + t.text + "' (declare it with "
                 ".param in kernel '" + k.name + "')");
    }
    if (p.param >= 0) {
      fail(line, "an instruction can reference at most one $parameter");
    }
    p.param = idx;
    p.kernel = static_cast<int>(kernels_.size()) - 1;
  }

  /// Immediate expression: numbers, .equ constants, and at most one
  /// `$param`, summed with explicit signs ("$a + 4 - N"). Every term
  /// after the first must carry its '+'/'-' -- bare juxtaposition
  /// ("movi %r1, 1 2") stays the syntax error it always was. Stops before
  /// `stop` (']' for memory operands) or the end of line.
  std::int64_t imm_expr(int line, Lexer& lex, PendingInstr& p, char stop) {
    std::int64_t value = 0;
    bool any = false;
    for (;;) {
      const Token& look = lex.peek();
      if (look.kind == Token::Kind::End ||
          (look.kind == Token::Kind::Punct && look.text[0] == stop)) {
        break;
      }
      const Token t = lex.next();
      if (any && !t.has_sign) {
        fail(line, "expected '+' or '-' before '" + t.text +
                   "' in an immediate expression");
      }
      if (t.kind == Token::Kind::Param) {
        note_param(line, p, t);
      } else {
        value += immediate(line, t);
      }
      any = true;
    }
    if (!any) {
      fail(line, "expected an immediate operand");
    }
    return value;
  }

  void expect_punct(int line, Lexer& lex, char c) {
    const Token t = lex.next();
    if (t.kind != Token::Kind::Punct || t.text[0] != c) {
      fail(line, std::string("expected '") + c + "', got '" + t.text + "'");
    }
  }

  void expect_end(int line, Lexer& lex) {
    const Token t = lex.next();
    if (t.kind != Token::Kind::End) {
      fail(line, "trailing junk: '" + t.text + "'");
    }
  }

  std::uint8_t expect_reg(int line, Lexer& lex) {
    const Token t = lex.next();
    if (t.kind == Token::Kind::Param) {
      fail(line, "expected a register, got parameter '$" + t.text +
                 "' ($parameters are immediates, patched at launch)");
    }
    if (t.kind != Token::Kind::Reg) {
      fail(line, "expected a register, got '" + t.text + "'");
    }
    return static_cast<std::uint8_t>(t.number);
  }

  std::uint8_t expect_pred(int line, Lexer& lex) {
    const Token t = lex.next();
    if (t.kind != Token::Kind::Pred) {
      fail(line, "expected a predicate register, got '" + t.text + "'");
    }
    return static_cast<std::uint8_t>(t.number);
  }

  /// Branch-style operand: a label or a literal address.
  void take_target(int line, Lexer& lex, PendingInstr& p) {
    const Token t = lex.next();
    if (t.kind == Token::Kind::Number) {
      p.instr.imm = static_cast<std::int32_t>(t.number);
    } else if (t.kind == Token::Kind::Ident) {
      p.target_label = t.text;
      p.needs_label = true;
    } else {
      fail(line, "expected a label or address, got '" + t.text + "'");
    }
  }

  void check_imm32(int line, std::int64_t v) {
    if (!fits_signed(v, 32) && !fits_unsigned(static_cast<std::uint64_t>(v), 32)) {
      fail(line, "immediate does not fit in 32 bits: " + std::to_string(v));
    }
  }

  void parse_instruction(int line, const std::string& s) {
    Lexer lex(s, line);
    Token t = lex.next();

    PendingInstr p;
    p.line = line;

    // Optional guard prefix: @p0 / @!p2.
    if (t.kind == Token::Kind::Ident && !t.text.empty() && t.text[0] == '@') {
      std::string g = t.text.substr(1);
      bool negated = false;
      if (!g.empty() && g[0] == '!') {
        negated = true;
        g = g.substr(1);
      }
      if (g.size() != 2 || g[0] != 'p' || !std::isdigit(static_cast<unsigned char>(g[1]))) {
        fail(line, "bad guard: " + t.text);
      }
      const int idx = g[1] - '0';
      if (idx >= isa::kNumPredRegs) {
        fail(line, "guard predicate out of range: " + t.text);
      }
      p.instr.guard = negated ? Guard::IfFalse : Guard::IfTrue;
      p.instr.gpred = static_cast<std::uint8_t>(idx);
      t = lex.next();
    }

    if (t.kind != Token::Kind::Ident) {
      fail(line, "expected a mnemonic, got '" + t.text + "'");
    }
    const auto op = isa::opcode_from_mnemonic(t.text);
    if (!op) {
      fail(line, "unknown mnemonic: " + t.text);
    }
    p.instr.op = *op;
    const auto& info = isa::op_info(*op);

    if (p.instr.guard != Guard::None &&
        info.timing != isa::TimingClass::Operation &&
        info.timing != isa::TimingClass::Load &&
        info.timing != isa::TimingClass::Store) {
      fail(line, "guards are only allowed on operation/load/store "
                 "instructions (use brp/brn for predicated branches)");
    }

    switch (info.format) {
      case Format::RRR:
        p.instr.rd = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.ra = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.rb = expect_reg(line, lex);
        break;
      case Format::RRI: {
        p.instr.rd = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.ra = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        const std::int64_t v = imm_expr(line, lex, p, '\0');
        check_imm32(line, v);
        p.instr.imm = static_cast<std::int32_t>(v);
        break;
      }
      case Format::RR:
        p.instr.rd = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.ra = expect_reg(line, lex);
        break;
      case Format::RI: {
        p.instr.rd = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        const std::int64_t v = imm_expr(line, lex, p, '\0');
        check_imm32(line, v);
        p.instr.imm = static_cast<std::int32_t>(v);
        break;
      }
      case Format::RS: {
        p.instr.rd = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        const Token sr = lex.next();
        const auto special =
            sr.kind == Token::Kind::Special
                ? isa::special_from_name(sr.text)
                : std::nullopt;
        if (!special) {
          fail(line, "expected a special register, got '" + sr.text + "'");
        }
        p.instr.imm = static_cast<std::int32_t>(*special);
        break;
      }
      case Format::PRR:
        p.instr.pd = expect_pred(line, lex);
        expect_punct(line, lex, ',');
        p.instr.ra = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.rb = expect_reg(line, lex);
        break;
      case Format::PPP:
        p.instr.pd = expect_pred(line, lex);
        expect_punct(line, lex, ',');
        p.instr.pa = expect_pred(line, lex);
        expect_punct(line, lex, ',');
        p.instr.pb = expect_pred(line, lex);
        break;
      case Format::PP:
        p.instr.pd = expect_pred(line, lex);
        expect_punct(line, lex, ',');
        p.instr.pa = expect_pred(line, lex);
        break;
      case Format::SELP:
        p.instr.rd = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.ra = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.rb = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        p.instr.pa = expect_pred(line, lex);
        break;
      case Format::MEM: {
        if (p.instr.op == Opcode::LDS) {
          p.instr.rd = expect_reg(line, lex);
          expect_punct(line, lex, ',');
          parse_mem_operand(line, lex, p);
        } else {
          parse_mem_operand(line, lex, p);
          expect_punct(line, lex, ',');
          p.instr.rd = expect_reg(line, lex);
        }
        break;
      }
      case Format::B:
        take_target(line, lex, p);
        break;
      case Format::PB:
        p.instr.pa = expect_pred(line, lex);
        expect_punct(line, lex, ',');
        take_target(line, lex, p);
        break;
      case Format::LOOPR:
        p.instr.ra = expect_reg(line, lex);
        expect_punct(line, lex, ',');
        take_target(line, lex, p);
        break;
      case Format::LOOPI: {
        const std::int64_t count = immediate(line, lex.next());
        if (count < 0 || count > 0xffff) {
          fail(line, "loop count must fit in 16 bits");
        }
        expect_punct(line, lex, ',');
        take_target(line, lex, p);
        // Stash the count in the upper half; the target resolves into the
        // lower half during pass 2.
        p.instr.imm = static_cast<std::int32_t>(count << 16);
        break;
      }
      case Format::TR:
        p.instr.ra = expect_reg(line, lex);
        break;
      case Format::TI: {
        const std::int64_t v = immediate(line, lex.next());
        if (v < 1 || v > 4096) {
          fail(line, "setti thread count must be in [1, 4096]");
        }
        p.instr.imm = static_cast<std::int32_t>(v);
        break;
      }
      case Format::NONE:
        break;
    }

    expect_end(line, lex);
    if (p.param >= 0) {
      // The immediate currently holds the constant addend; the runtime
      // loader patches `bound value + addend` in at launch.
      kernels_[p.kernel].refs.push_back(
          {static_cast<std::uint32_t>(pending_.size()),
           static_cast<std::uint32_t>(p.param), p.instr.imm});
    }
    pending_.push_back(std::move(p));
  }

  void parse_mem_operand(int line, Lexer& lex, PendingInstr& p) {
    expect_punct(line, lex, '[');
    p.instr.ra = expect_reg(line, lex);
    std::int64_t offset = 0;
    if (!(lex.peek().kind == Token::Kind::Punct && lex.peek().text[0] == ']')) {
      offset = imm_expr(line, lex, p, ']');
    }
    expect_punct(line, lex, ']');
    check_imm32(line, offset);
    p.instr.imm = static_cast<std::int32_t>(offset);
  }

  void resolve() {
    for (auto& p : pending_) {
      if (!p.needs_label) {
        continue;
      }
      const auto it = labels_.find(p.target_label);
      if (it == labels_.end()) {
        fail(p.line, "undefined label: " + p.target_label);
      }
      const std::uint32_t target = it->second;
      if (p.instr.op == Opcode::LOOPI) {
        if (target > 0xffff) {
          fail(p.line, "loop end address does not fit in 16 bits");
        }
        p.instr.imm |= static_cast<std::int32_t>(target);
      } else {
        p.instr.imm = static_cast<std::int32_t>(target);
      }
    }
  }

  std::vector<PendingInstr> pending_;
  std::map<std::string, std::uint32_t> labels_;
  std::map<std::string, std::int64_t> equs_;
  std::vector<core::KernelInfo> kernels_;
};

}  // namespace

core::Program assemble(std::string_view source) {
  AsmContext ctx;
  return ctx.assemble(source);
}

}  // namespace simt::assembler
