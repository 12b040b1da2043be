//===- support/Json.cpp - Minimal ordered JSON value/codec -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace marqsim;
using namespace marqsim::json;

//===----------------------------------------------------------------------===//
// Value accessors
//===----------------------------------------------------------------------===//

Value &Value::set(const std::string &Key, Value V) {
  assert(K == Kind::Object && "set() on a non-object");
  for (Member &M : Obj)
    if (M.first == Key) {
      M.second = std::move(V);
      return *this;
    }
  Obj.emplace_back(Key, std::move(V));
  return *this;
}

const Value *Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const Member &M : Obj)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

void Value::push(Value V) {
  assert(K == Kind::Array && "push() on a non-array");
  Arr.push_back(std::move(V));
}

size_t Value::size() const {
  if (K == Kind::Array)
    return Arr.size();
  if (K == Kind::Object)
    return Obj.size();
  return 0;
}

const Value &Value::at(size_t Index) const {
  assert(K == Kind::Array && Index < Arr.size() && "at() out of range");
  return Arr[Index];
}

const std::string &Value::asString() const {
  static const std::string Empty;
  return K == Kind::String ? S : Empty;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

void dumpString(const std::string &S, std::string &Out) {
  Out += '"';
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (U < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
        Out += Buf;
      } else {
        Out += C; // UTF-8 bytes pass through untouched
      }
    }
  }
  Out += '"';
}

void dumpValue(const Value &V, std::string &Out) {
  switch (V.kind()) {
  case Value::Kind::Null:
    Out += "null";
    break;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case Value::Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(V.asInt()));
    Out += Buf;
    break;
  }
  case Value::Kind::Double: {
    double D = V.asDouble();
    if (!std::isfinite(D)) {
      Out += "null";
      break;
    }
    // %.17g writes -0.0 as "-0", which parses back as the integer 0;
    // "-0.0" keeps the rendering a fixed point of dump(parse()).
    if (D == 0.0 && std::signbit(D)) {
      Out += "-0.0";
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out += Buf;
    break;
  }
  case Value::Kind::String:
    dumpString(V.asString(), Out);
    break;
  case Value::Kind::Array: {
    Out += '[';
    const std::vector<Value> &Arr = *V.items();
    for (size_t I = 0; I < Arr.size(); ++I) {
      if (I)
        Out += ',';
      dumpValue(Arr[I], Out);
    }
    Out += ']';
    break;
  }
  case Value::Kind::Object: {
    Out += '{';
    const std::vector<Member> &Obj = *V.members();
    for (size_t I = 0; I < Obj.size(); ++I) {
      if (I)
        Out += ',';
      dumpString(Obj[I].first, Out);
      Out += ':';
      dumpValue(Obj[I].second, Out);
    }
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string Value::dump() const {
  std::string Out;
  dumpValue(*this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Maximum nesting depth: adversarial frames must fail, not smash the
/// stack (each level costs two small frames of recursion).
constexpr unsigned MaxDepth = 96;

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  std::string Error;

  explicit Parser(const std::string &Text) : Text(Text) {}

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message + " at byte " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += Len;
    return true;
  }

  /// Appends the UTF-8 encoding of \p Code.
  static void appendUtf8(uint32_t Code, std::string &Out) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool hex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    uint32_t V = 0;
    for (unsigned I = 0; I < 4; ++I) {
      char C = Text[Pos + I];
      uint32_t Digit;
      if (C >= '0' && C <= '9')
        Digit = static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Digit = static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Digit = static_cast<uint32_t>(C - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
      V = (V << 4) | Digit;
    }
    Pos += 4;
    Out = V;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected '\"'");
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t Code = 0;
        if (!hex4(Code))
          return false;
        // Surrogate pair: a high surrogate must be followed by \uDC00..
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          if (!(Pos + 1 < Text.size() && Text[Pos] == '\\' &&
                Text[Pos + 1] == 'u'))
            return fail("lone high surrogate");
          Pos += 2;
          uint32_t Low = 0;
          if (!hex4(Low))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return fail("bad low surrogate");
          Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("lone low surrogate");
        }
        appendUtf8(Code, Out);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (consume('-')) {
    }
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("malformed number");
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    bool Integral = true;
    if (Pos < Text.size() && Text[Pos] == '.') {
      Integral = false;
      ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("malformed fraction");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Integral = false;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("malformed exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    std::string Token = Text.substr(Start, Pos - Start);
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Token.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0') {
        Out = Value(static_cast<int64_t>(V));
        return true;
      }
      // Out-of-int64-range integers degrade to double.
    }
    errno = 0;
    char *End = nullptr;
    double D = std::strtod(Token.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    Out = Value(D);
    return true;
  }

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{': {
      ++Pos;
      Out = Value::object();
      skipSpace();
      if (consume('}'))
        return true;
      while (true) {
        skipSpace();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipSpace();
        if (!consume(':'))
          return fail("expected ':'");
        Value V;
        if (!parseValue(V, Depth + 1))
          return false;
        Out.set(Key, std::move(V));
        skipSpace();
        if (consume(','))
          continue;
        if (consume('}'))
          return true;
        return fail("expected ',' or '}'");
      }
    }
    case '[': {
      ++Pos;
      Out = Value::array();
      skipSpace();
      if (consume(']'))
        return true;
      while (true) {
        Value V;
        if (!parseValue(V, Depth + 1))
          return false;
        Out.push(std::move(V));
        skipSpace();
        if (consume(','))
          continue;
        if (consume(']'))
          return true;
        return fail("expected ',' or ']'");
      }
    }
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    case 't':
      if (!literal("true"))
        return false;
      Out = Value(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Value(false);
      return true;
    case 'n':
      if (!literal("null"))
        return false;
      Out = Value(nullptr);
      return true;
    default:
      return parseNumber(Out);
    }
  }
};

} // namespace

std::optional<Value> Value::parse(const std::string &Text,
                                  std::string *Error) {
  Parser P(Text);
  Value Out;
  if (!P.parseValue(Out, 0)) {
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  P.skipSpace();
  if (P.Pos != Text.size()) {
    P.fail("trailing garbage");
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  return Out;
}
