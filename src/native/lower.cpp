#include "native/lower.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace f90d::native {

namespace {

using exec::ExecPlan;
using exec::Ins;
using exec::Op;
using exec::RefPlan;
using exec::Tape;
using exec::Value;
using K = Value::K;

/// Internal control flow: a decline unwinds the lowering.
struct Fail {
  std::string reason;
};

[[noreturn]] void fail(std::string reason) { throw Fail{std::move(reason)}; }

/// Exact double literal: hexfloat round-trips every finite value bit-for-bit.
std::string dlit(double v) {
  if (!std::isfinite(v)) fail("non-finite real constant");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return std::string(buf);
}

const char* tname(K k) {
  switch (k) {
    case K::kD: return "double";
    case K::kI: return "long long";
    case K::kB: return "bool";
  }
  return "double";
}

/// One SSA temporary: its C++ name and static value kind.
struct Tmp {
  std::string name;
  K k = K::kD;
};

std::string ilit(long long v) {
  return std::string("(") + std::to_string(v) + "LL)";
}

class Lowerer {
 public:
  Lowerer(const ExecPlan& p, const exec::IrregularPlan* irr)
      : p_(p), irr_(irr), nv_(p.loops.size()) {}

  Lowered run() {
    if (nv_ == 0) fail("empty loop nest");
    switch (p_.lhs.kind) {
      case RefPlan::Kind::kRealDirect:
      case RefPlan::Kind::kIntDirect:
      case RefPlan::Kind::kLogicalDirect:
      case RefPlan::Kind::kValueBuf:
        break;
      case RefPlan::Kind::kNone:
        if (irr_ != nullptr && irr_->lhs_buffered) break;
        fail("section reduction");
      default:
        fail("non-direct lhs");
    }
    used_var_.assign(nv_, false);

    // Lower every mode's body first (into side strings): this discovers
    // which loop variables, references and runtime scalars are used.
    const std::string ind(4 + 2 * nv_, ' ');
    std::vector<std::string> bodies;
    std::ostringstream bos;
    executor_body(bos, ind);
    bodies.push_back(bos.str());
    if (irr_ != nullptr)
      for (const exec::IrrRead& rd : irr_->reads) {
        bos.str("");
        const std::string f = lower_flat(rd.idx, bos, ind);
        bos << ind << "oi[w++] = " << f << ";\n";
        bodies.push_back(bos.str());
      }

    const size_t nr = p_.refs.size();
    std::ostringstream os;
    os << "// generated by the f90d native node-program backend\n"
       << "static inline long long f90d_idiv(long long a, long long b) "
          "{ return b == 0 ? 0 : a / b; }\n"
       << "static inline long long f90d_imod(long long a, long long b) "
          "{ return b == 0 ? 0 : a % b; }\n"
       << "static inline long long f90d_iabs(long long a) "
          "{ return a < 0 ? -a : a; }\n"
       << "static inline long long f90d_ipow(long long a, long long b) "
          "{ long long r = 1; for (long long k = 0; k < b; ++k) r *= a; "
          "return r; }\n"
       << "extern \"C\" void " << kKernelSymbol
       << "(const long long* lp, const long long* const* lv,\n"
       << "    void* const* base, const long long* rb, const long long* st,\n"
       << "    const long long* const* tb, const double* ds,\n"
       << "    const long long* is, const unsigned char* ls) {\n"
       << "  (void)lp; (void)lv; (void)base; (void)rb; (void)st; (void)tb;\n"
       << "  (void)ds; (void)is; (void)ls;\n"
       << "  const long long mode = lp[" << 3 * nv_ << "];\n"
       << "  double* ov = (double*)base[" << nr + 1 << "];\n"
       << "  long long* oi = (long long*)base[" << nr + 2 << "];\n"
       << "  long long* err = (long long*)base[" << nr + 3 << "];\n"
       << "  (void)ov; (void)oi; (void)err;\n";

    // Storage pointers: reads in plan order, then the lhs at index nr.
    for (size_t r = 0; r <= nr; ++r) {
      const char* ty = nullptr;
      switch (ref(r).kind) {
        case RefPlan::Kind::kRealDirect:
        case RefPlan::Kind::kRealSlab:
        case RefPlan::Kind::kRealIterBuf: ty = "double"; break;
        case RefPlan::Kind::kIntDirect:
        case RefPlan::Kind::kIntIterBuf: ty = "long long"; break;
        case RefPlan::Kind::kLogicalDirect: ty = "unsigned char"; break;
        case RefPlan::Kind::kScalarSlot:  // value arrives via ds/is/ls
        case RefPlan::Kind::kValueBuf:    // streams into ov/oi
        case RefPlan::Kind::kNone:
          continue;
      }
      os << "  " << ty << "* b" << r << " = (" << ty << "*)base[" << r
         << "];\n";
    }
    for (size_t j = 0; j < elem_types_.size(); ++j)
      os << "  const " << elem_types_[j] << "* e" << j << " = (const "
         << elem_types_[j] << "*)base[" << nr + 4 + j << "];\n";
    for (size_t k = 0; k < nv_; ++k)
      os << "  const long long n" << k << " = lp[" << 3 * k << "];\n";
    for (size_t m = 0; m < bodies.size(); ++m) {
      os << "  if (mode == " << m << ") {\n"
         << "    long long w = 0;\n"
         << "    (void)w;\n";
      emit_nest(os, bodies[m]);
      os << "    return;\n"
         << "  }\n";
    }
    os << "}\n";

    Lowered out;
    out.source = os.str();
    out.scalars = std::move(binds_);
    out.n_ds = n_ds_;
    out.n_is = n_is_;
    out.n_ls = n_ls_;
    out.elems = std::move(elem_bases_);
    out.sites = std::move(sites_);
    return out;
  }

 private:
  const RefPlan& ref(size_t r) const { return r < p_.refs.size() ? p_.refs[r] : p_.lhs; }

  /// Whether ref r carries a flat-offset recurrence in the kernel.
  bool has_offset(size_t r) const {
    switch (ref(r).kind) {
      case RefPlan::Kind::kScalarSlot:
      case RefPlan::Kind::kNone:
        return false;
      default:
        return true;
    }
  }

  /// The loop nest around `body`.  Per level: the counter, the (optional)
  /// source-coordinate value, and one hoisted partial flat offset per
  /// reference with a recurrence.
  void emit_nest(std::ostringstream& os, const std::string& body) const {
    const size_t nr = p_.refs.size();
    for (size_t k = 0; k < nv_; ++k) {
      const std::string ind(4 + 2 * k, ' ');
      os << ind << "for (long long c" << k << " = 0; c" << k << " < n" << k
         << "; ++c" << k << ") {\n";
      if (used_var_[k]) {
        os << ind << "  const long long v" << k << " = ";
        if (p_.loops[k].values.empty())
          os << "lp[" << 3 * k + 1 << "] + c" << k << " * lp[" << 3 * k + 2
             << "];\n";
        else
          os << "lv[" << k << "][c" << k << "];\n";
      }
      for (size_t r = 0; r <= nr; ++r) {
        if (!has_offset(r)) continue;
        os << ind << "  const long long q" << r << "_" << k << " = "
           << (k == 0 ? std::string("rb[") + std::to_string(r) + "]"
                      : std::string("q") + std::to_string(r) + "_" +
                            std::to_string(k - 1))
           << " + " << term(r, k) << ";\n";
      }
    }
    os << body;
    for (size_t k = nv_; k > 0; --k)
      os << std::string(2 + 2 * k, ' ') << "}\n";
  }

  /// Mode 0: the statement's compute loop — a masked store through a
  /// direct lhs, or one (value, destination id) pair per iteration into
  /// the ov/oi streams (concatenation: the lhs recurrence is the flat
  /// global id; scatter: the irregular lhs indexer computes it).
  void executor_body(std::ostringstream& os, const std::string& ind) {
    const size_t nr = p_.refs.size();
    const bool stream = p_.lhs.kind == RefPlan::Kind::kValueBuf ||
                        p_.lhs.kind == RefPlan::Kind::kNone;
    if (stream) {
      if (!p_.mask.empty()) fail("masked buffered lhs");
      const Tmp res = lower_tape(p_.rhs, os, ind);
      const std::string dest = p_.lhs.kind == RefPlan::Kind::kValueBuf
                                   ? off(nr)
                                   : lower_flat(irr_->lhs_idx, os, ind);
      os << ind << "ov[w] = " << cvt(res, K::kD) << ";\n"
         << ind << "oi[w++] = " << dest << ";\n";
      return;
    }
    const bool has_mask = !p_.mask.empty();
    std::string rhs_ind = ind;
    if (has_mask) {
      const Tmp mask = lower_tape(p_.mask, os, ind);
      os << ind << "if (" << cvt(mask, K::kB) << ") {\n";
      rhs_ind += "  ";
    }
    const Tmp res = lower_tape(p_.rhs, os, rhs_ind);
    os << rhs_ind << "b" << nr << "[" << off(nr) << "] = " << store(res)
       << ";\n";
    if (has_mask) os << ind << "}\n";
  }

  /// One range check: `sub` (an integer temporary) against
  /// [lower, lower+extent-1]; on failure the kernel records the site and
  /// the subscript and stops.  Returns the 0-based index temporary.
  std::string check(std::ostringstream& os, const std::string& ind,
                    const std::string& sub, const std::string& array,
                    long long lower, long long extent, int dim) {
    const int site = static_cast<int>(sites_.size());
    sites_.push_back(CheckSite{array, lower, extent, dim});
    const Tmp g = mk(os, ind, K::kI, sub + " - " + ilit(lower));
    os << ind << "if (" << g.name << " < 0 || " << g.name
       << " >= " << ilit(extent) << ") { err[0] = " << site
       << "; err[1] = " << sub << "; return; }\n";
    return g.name;
  }

  /// A GlobalIndexer's flat global element id: each dimension's tape,
  /// then its range check, in dimension order (the tape's flat_of).
  std::string lower_flat(const exec::GlobalIndexer& gi,
                         std::ostringstream& os, const std::string& ind) {
    std::string flat = "0LL";
    for (size_t d = 0; d < gi.subs.size(); ++d) {
      const Tmp v = lower_tape(gi.subs[d], os, ind);
      const Tmp sub = mk(os, ind, K::kI, cvt(v, K::kI));
      const std::string g =
          check(os, ind, sub.name, gi.array, gi.lowers[d],
                static_cast<long long>(gi.extents[d]), static_cast<int>(d));
      flat += " + " + g + " * " + ilit(gi.gstrides[d]);
    }
    return mk(os, ind, K::kI, flat).name;
  }

  /// Flat-offset variable of ref r in the innermost scope.
  std::string off(size_t r) const {
    return std::string("q") + std::to_string(r) + "_" +
           std::to_string(nv_ - 1);
  }

  /// Level-k contribution of ref r's offset recurrence (stride or table —
  /// the choice is structural and baked into the source).
  std::string term(size_t r, size_t k) const {
    const size_t idx = r * nv_ + k;
    const exec::OffsetTerm& t = ref(r).terms[k];
    if (!t.table.empty())
      return std::string("tb[") + std::to_string(idx) + "][c" +
             std::to_string(k) + "]";
    return std::string("st[") + std::to_string(idx) + "] * c" +
           std::to_string(k);
  }

  /// Conversion mirroring Value::as_d / as_i / as_b on a static kind.
  std::string cvt(const Tmp& v, K to) const {
    if (v.k == to) return v.name;
    switch (to) {
      case K::kD:
        return v.k == K::kI ? std::string("(double)") + v.name
                            : std::string("(") + v.name + " ? 1.0 : 0.0)";
      case K::kI:
        return v.k == K::kD ? std::string("(long long)") + v.name
                            : std::string("(") + v.name + " ? 1LL : 0LL)";
      case K::kB:
        return v.k == K::kD ? std::string("(") + v.name + " != 0.0)"
                            : std::string("(") + v.name + " != 0)";
    }
    return v.name;
  }

  /// The store expression: Value::as_d/as_i/as_b by the lhs element type.
  std::string store(const Tmp& res) const {
    switch (p_.lhs.kind) {
      case RefPlan::Kind::kRealDirect: return cvt(res, K::kD);
      case RefPlan::Kind::kIntDirect: return cvt(res, K::kI);
      case RefPlan::Kind::kLogicalDirect:
        return std::string("(unsigned char)(") + cvt(res, K::kB) +
               " ? 1 : 0)";
      default: break;
    }
    fail("non-direct lhs");
  }

  /// Allocate (or reuse) the ds/is/ls slot feeding from `src`, whose kind
  /// is baked into the source and re-verified by the wrapper every call.
  std::string scalar_slot(const Value* src) {
    auto it = slot_of_.find(src);
    if (it == slot_of_.end()) {
      ScalarBind b;
      b.src = src;
      b.kind = src->k;
      switch (src->k) {
        case K::kD: b.slot = n_ds_++; break;
        case K::kI: b.slot = n_is_++; break;
        case K::kB: b.slot = n_ls_++; break;
      }
      it = slot_of_.emplace(src, b).first;
      binds_.push_back(b);
    }
    const ScalarBind& b = it->second;
    switch (b.kind) {
      case K::kD: return std::string("ds[") + std::to_string(b.slot) + "]";
      case K::kI: return std::string("is[") + std::to_string(b.slot) + "]";
      case K::kB:
        return std::string("(ls[") + std::to_string(b.slot) + "] != 0)";
    }
    return "ds[0]";
  }

  /// The e<j> pointer of a whole-array element read's storage (one slot
  /// per distinct storage, passed at call time like every other base).
  std::string elem_base(const exec::ElemRef& er) {
    const void* base = er.dbase != nullptr   ? static_cast<const void*>(er.dbase)
                       : er.ibase != nullptr ? static_cast<const void*>(er.ibase)
                                             : static_cast<const void*>(er.lbase);
    size_t j = 0;
    while (j < elem_bases_.size() && elem_bases_[j] != base) ++j;
    if (j == elem_bases_.size()) {
      elem_bases_.push_back(base);
      elem_types_.push_back(er.dbase != nullptr   ? "double"
                            : er.ibase != nullptr ? "long long"
                                                  : "unsigned char");
    }
    return std::string("e") + std::to_string(j);
  }

  /// kElem: the rank subscripts (already on the stack), each range-checked
  /// in dimension order, folded into the replicated storage offset.
  Tmp lower_elem(std::ostringstream& os, const std::string& ind,
                 const exec::ElemRef& er, std::vector<Tmp>& stack) {
    const size_t rank = er.lowers.size();
    if (stack.size() < rank) fail("tape underflow");
    const std::vector<Tmp> args(stack.end() - static_cast<long>(rank),
                                stack.end());
    stack.resize(stack.size() - rank);
    std::string off = "0LL";
    for (size_t d = 0; d < rank; ++d) {
      const Tmp sub = mk(os, ind, K::kI, cvt(args[d], K::kI));
      const std::string g =
          check(os, ind, sub.name, er.array, er.lowers[d],
                static_cast<long long>(er.extents[d]), static_cast<int>(d));
      off += " + (" + g + " + " + ilit(er.shifts[d]) + ") * " +
             ilit(er.strides[d]);
    }
    const std::string e = elem_base(er);
    const Tmp o = mk(os, ind, K::kI, off);
    if (er.lbase != nullptr)
      return mk(os, ind, K::kB, "(" + e + "[" + o.name + "] != 0)");
    return mk(os, ind, er.dbase != nullptr ? K::kD : K::kI,
              e + "[" + o.name + "]");
  }

  Tmp mk(std::ostringstream& os, const std::string& ind, K k,
         const std::string& expr) {
    Tmp t{std::string("t") + std::to_string(tmp_++), k};
    os << ind << "const " << tname(k) << " " << t.name << " = " << expr
       << ";\n";
    return t;
  }

  Tmp pop(std::vector<Tmp>& stack) {
    if (stack.empty()) fail("tape underflow");
    Tmp t = std::move(stack.back());
    stack.pop_back();
    return t;
  }

  /// Expand one postfix tape into SSA temporaries, in instruction order —
  /// the emitted evaluation order matches the tape runner exactly.
  Tmp lower_tape(const Tape& tape, std::ostringstream& os,
                 const std::string& ind) {
    std::vector<Tmp> stack;
    for (const Ins& ins : tape.ins) {
      switch (ins.op) {
        case Op::kConst:
          switch (ins.cst.k) {
            case K::kD: stack.push_back(mk(os, ind, K::kD, dlit(ins.cst.d))); break;
            case K::kI:
              stack.push_back(
                  mk(os, ind, K::kI, std::to_string(ins.cst.i) + "LL"));
              break;
            case K::kB:
              stack.push_back(mk(os, ind, K::kB, ins.cst.b ? "true" : "false"));
              break;
          }
          break;
        case Op::kScalar:
          stack.push_back(
              mk(os, ind, ins.scalar->k, scalar_slot(ins.scalar)));
          break;
        case Op::kVar: {
          const size_t level = static_cast<size_t>(ins.a);
          used_var_[level] = true;
          stack.push_back(Tmp{std::string("v") + std::to_string(level), K::kI});
          break;
        }
        case Op::kRef: {
          const size_t r = static_cast<size_t>(ins.a);
          const RefPlan& rp = p_.refs[r];
          const std::string at =
              std::string("b") + std::to_string(r) + "[" + off(r) + "]";
          switch (rp.kind) {
            case RefPlan::Kind::kRealDirect:
            case RefPlan::Kind::kRealSlab:
            case RefPlan::Kind::kRealIterBuf:
              stack.push_back(mk(os, ind, K::kD, at));
              break;
            case RefPlan::Kind::kIntDirect:
            case RefPlan::Kind::kIntIterBuf:
              stack.push_back(mk(os, ind, K::kI, at));
              break;
            case RefPlan::Kind::kLogicalDirect:
              stack.push_back(mk(os, ind, K::kB, "(" + at + " != 0)"));
              break;
            case RefPlan::Kind::kScalarSlot: {
              const Value* src = &rp.buf->scalar;
              stack.push_back(mk(os, ind, src->k, scalar_slot(src)));
              break;
            }
            case RefPlan::Kind::kValueBuf:
            case RefPlan::Kind::kNone:
              fail("write-only reference kind");
          }
          break;
        }
        case Op::kElem:
          stack.push_back(lower_elem(
              os, ind, tape.elems[static_cast<size_t>(ins.a)], stack));
          break;
        case Op::kNeg: {
          const Tmp v = pop(stack);
          if (v.k == K::kI)
            stack.push_back(mk(os, ind, K::kI, std::string("-") + v.name));
          else
            stack.push_back(
                mk(os, ind, K::kD, std::string("-") + cvt(v, K::kD)));
          break;
        }
        case Op::kNot: {
          const Tmp v = pop(stack);
          stack.push_back(
              mk(os, ind, K::kB, std::string("!") + cvt(v, K::kB)));
          break;
        }
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kDiv:
        case Op::kPow:
        case Op::kEq:
        case Op::kNe:
        case Op::kLt:
        case Op::kLe:
        case Op::kGt:
        case Op::kGe:
        case Op::kAnd:
        case Op::kOr: {
          const Tmp r = pop(stack);
          const Tmp l = pop(stack);
          stack.push_back(lower_bin(os, ind, ins.op, l, r));
          break;
        }
        default:
          stack.push_back(lower_intrinsic(os, ind, ins, stack));
          break;
      }
    }
    if (stack.size() != 1) fail("tape leaves wrong stack depth");
    return stack.back();
  }

  Tmp lower_bin(std::ostringstream& os, const std::string& ind, Op op,
                const Tmp& l, const Tmp& r) {
    const bool both_int = l.k == K::kI && r.k == K::kI;
    auto dd = [&](const char* o) {
      return cvt(l, K::kD) + " " + o + " " + cvt(r, K::kD);
    };
    switch (op) {
      case Op::kAnd:
        return mk(os, ind, K::kB, cvt(l, K::kB) + " && " + cvt(r, K::kB));
      case Op::kOr:
        return mk(os, ind, K::kB, cvt(l, K::kB) + " || " + cvt(r, K::kB));
      case Op::kAdd:
        return both_int ? mk(os, ind, K::kI, l.name + " + " + r.name)
                        : mk(os, ind, K::kD, dd("+"));
      case Op::kSub:
        return both_int ? mk(os, ind, K::kI, l.name + " - " + r.name)
                        : mk(os, ind, K::kD, dd("-"));
      case Op::kMul:
        return both_int ? mk(os, ind, K::kI, l.name + " * " + r.name)
                        : mk(os, ind, K::kD, dd("*"));
      case Op::kDiv:
        return both_int
                   ? mk(os, ind, K::kI,
                        "f90d_idiv(" + l.name + ", " + r.name + ")")
                   : mk(os, ind, K::kD, dd("/"));
      case Op::kPow:
        return both_int
                   ? mk(os, ind, K::kI,
                        "f90d_ipow(" + l.name + ", " + r.name + ")")
                   : mk(os, ind, K::kD,
                        std::string("__builtin_pow(") + cvt(l, K::kD) +
                            ", " + cvt(r, K::kD) + ")");
      case Op::kEq: return mk(os, ind, K::kB, dd("=="));
      case Op::kNe: return mk(os, ind, K::kB, dd("!="));
      case Op::kLt: return mk(os, ind, K::kB, dd("<"));
      case Op::kLe: return mk(os, ind, K::kB, dd("<="));
      case Op::kGt: return mk(os, ind, K::kB, dd(">"));
      case Op::kGe: return mk(os, ind, K::kB, dd(">="));
      default: break;
    }
    fail("unexpected binary op");
  }

  Tmp lower_intrinsic(std::ostringstream& os, const std::string& ind,
                      const Ins& ins, std::vector<Tmp>& stack) {
    const size_t argc = static_cast<size_t>(ins.a);
    if (stack.size() < argc) fail("tape underflow");
    std::vector<Tmp> args(stack.end() - static_cast<long>(argc), stack.end());
    stack.resize(stack.size() - argc);
    auto d1 = [&](const char* fn) {
      return mk(os, ind, K::kD,
                std::string(fn) + "(" + cvt(args[0], K::kD) + ")");
    };
    switch (ins.op) {
      case Op::kAbs:
        if (args[0].k == K::kI)
          return mk(os, ind, K::kI, "f90d_iabs(" + args[0].name + ")");
        return d1("__builtin_fabs");
      case Op::kSqrt: return d1("__builtin_sqrt");
      case Op::kExp: return d1("__builtin_exp");
      case Op::kLog: return d1("__builtin_log");
      case Op::kSin: return d1("__builtin_sin");
      case Op::kCos: return d1("__builtin_cos");
      case Op::kMod:
        if (args[0].k == K::kI && args[1].k == K::kI)
          return mk(os, ind, K::kI,
                    "f90d_imod(" + args[0].name + ", " + args[1].name + ")");
        return mk(os, ind, K::kD,
                  std::string("__builtin_fmod(") + cvt(args[0], K::kD) +
                      ", " + cvt(args[1], K::kD) + ")");
      case Op::kMin:
      case Op::kMax: {
        // The tape's accumulator keeps the *Value* of whichever argument
        // wins the as_d comparison; its kind is only static when every
        // argument agrees.
        for (const Tmp& a : args)
          if (a.k != args[0].k) fail("mixed-kind MIN/MAX");
        const char* cmp = ins.op == Op::kMin ? "<" : ">";
        Tmp acc = args[0];
        for (size_t k = 1; k < argc; ++k)
          acc = mk(os, ind, acc.k,
                   std::string("(") + cvt(args[k], K::kD) + " " + cmp + " " +
                       cvt(acc, K::kD) + ") ? " + args[k].name + " : " +
                       acc.name);
        return acc;
      }
      case Op::kToReal: return mk(os, ind, K::kD, cvt(args[0], K::kD));
      case Op::kToInt: return mk(os, ind, K::kI, cvt(args[0], K::kI));
      case Op::kNint:
        return mk(os, ind, K::kI,
                  std::string("__builtin_llround(") + cvt(args[0], K::kD) +
                      ")");
      default: break;
    }
    fail("unexpected intrinsic op");
  }

  const ExecPlan& p_;
  const exec::IrregularPlan* irr_;
  const size_t nv_;
  int tmp_ = 0;
  std::vector<bool> used_var_;
  std::map<const Value*, ScalarBind> slot_of_;
  std::vector<ScalarBind> binds_;
  int n_ds_ = 0;
  int n_is_ = 0;
  int n_ls_ = 0;
  std::vector<const void*> elem_bases_;
  std::vector<const char*> elem_types_;
  std::vector<CheckSite> sites_;
};

}  // namespace

std::optional<Lowered> lower_plan(const exec::ExecPlan& p, std::string* why,
                                  const exec::IrregularPlan* irr) {
  try {
    return Lowerer(p, irr).run();
  } catch (const Fail& f) {
    if (why != nullptr) *why = f.reason;
    return std::nullopt;
  }
}

namespace {

std::string comm_kernel_head() {
  std::ostringstream os;
  os << "// generated by the f90d comm-plan backend\n"
     << "extern \"C\" void " << kKernelSymbol
     << "(const long long* lp, const long long* const* lv,\n"
     << "    void* const* base, const long long* rb, const long long* st,\n"
     << "    const long long* const* tb, const double* ds,\n"
     << "    const long long* is, const unsigned char* ls) {\n"
     << "  (void)lp; (void)lv; (void)base; (void)rb; (void)st; (void)tb;\n"
     << "  (void)ds; (void)is; (void)ls;\n";
  return os.str();
}

}  // namespace

std::string lower_copy_kernel(int levels, bool pack) {
  std::ostringstream os;
  os << comm_kernel_head();
  os << "  const long long ch = rb[1];\n";
  if (pack) {
    os << "  const char* s0 = (const char*)base[0] + rb[0];\n"
       << "  char* d = (char*)base[1];\n";
  } else {
    os << "  const char* s = (const char*)base[1];\n"
       << "  char* d0 = (char*)base[0] + rb[0];\n";
  }
  for (int k = 0; k < levels; ++k) {
    const std::string ind(2 + 2 * k, ' ');
    os << ind << "for (long long c" << k << " = 0; c" << k << " < lp[" << k
       << "]; ++c" << k << ") {\n";
  }
  const std::string ind(2 + 2 * levels, ' ');
  std::string off;
  for (int k = 0; k < levels; ++k)
    off += " + c" + std::to_string(k) + "*st[" + std::to_string(k) + "]";
  if (pack) {
    os << ind << "__builtin_memcpy(d, s0" << off << ", (__SIZE_TYPE__)ch);\n"
       << ind << "d += ch;\n";
  } else {
    os << ind << "__builtin_memcpy(d0" << off << ", s, (__SIZE_TYPE__)ch);\n"
       << ind << "s += ch;\n";
  }
  for (int k = levels - 1; k >= 0; --k) os << std::string(2 + 2 * k, ' ') << "}\n";
  os << "}\n";
  return os.str();
}

std::string lower_index_kernel(bool gather, bool cast_d2i) {
  std::ostringstream os;
  os << comm_kernel_head();
  os << "  const long long n = lp[0];\n"
     << "  const long long* off = tb[0];\n";
  if (gather && cast_d2i) {
    os << "  const char* s = (const char*)base[0];\n"
       << "  char* d = (char*)base[1];\n"
       << "  for (long long k = 0; k < n; ++k) {\n"
       << "    double v; __builtin_memcpy(&v, s + off[k], 8);\n"
       << "    const long long w = (long long)v;\n"
       << "    __builtin_memcpy(d + 8*k, &w, 8);\n"
       << "  }\n";
  } else if (gather) {
    os << "  const char* s = (const char*)base[0];\n"
       << "  char* d = (char*)base[1];\n"
       << "  for (long long k = 0; k < n; ++k)\n"
       << "    __builtin_memcpy(d + 8*k, s + off[k], 8);\n";
  } else {
    os << "  const char* s = (const char*)base[1];\n"
       << "  char* d = (char*)base[0];\n"
       << "  for (long long k = 0; k < n; ++k)\n"
       << "    __builtin_memcpy(d + off[k], s + 8*k, 8);\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace f90d::native
