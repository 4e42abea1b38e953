#include "src/pf/interpreter.h"

#include "src/util/byte_order.h"

namespace pf {

std::string ToString(ExecStatus status) {
  switch (status) {
    case ExecStatus::kOk:
      return "ok";
    case ExecStatus::kBadOpcode:
      return "bad opcode";
    case ExecStatus::kBadAction:
      return "bad stack action";
    case ExecStatus::kMissingLiteral:
      return "PUSHLIT without literal";
    case ExecStatus::kStackUnderflow:
      return "stack underflow";
    case ExecStatus::kStackOverflow:
      return "stack overflow";
    case ExecStatus::kOutOfPacket:
      return "reference outside packet";
    case ExecStatus::kEmptyStackAtEnd:
      return "empty stack at end";
    case ExecStatus::kDivideByZero:
      return "divide by zero";
  }
  return "unknown";
}

namespace {

ExecResult Fail(ExecResult res, ExecStatus status) {
  res.status = status;
  res.accept = false;
  return res;
}

}  // namespace

ExecResult InterpretChecked(const Program& program, std::span<const uint8_t> packet) {
  ExecResult res;
  const std::vector<uint16_t>& words = program.words;
  if (words.empty()) {
    // An empty filter accepts every packet (§6.6 table 6-10's zero-length
    // filter; the network monitor's tap-all filter).
    res.accept = true;
    return res;
  }

  uint16_t stack[kMaxStackDepth];
  uint32_t depth = 0;

  for (size_t i = 0; i < words.size(); ++i) {
    const RawFields fields = SplitWord(words[i]);
    if (!IsValidOp(fields.op_bits, program.version)) {
      return Fail(res, ExecStatus::kBadOpcode);
    }
    if (!IsValidAction(fields.action_bits, program.version)) {
      return Fail(res, ExecStatus::kBadAction);
    }
    ++res.insns_executed;

    // --- Stack action ---
    if (fields.action_bits >= kPushWordBase) {
      uint16_t value = 0;
      if (!pfutil::LoadPacketWord(packet, fields.action_bits - kPushWordBase, &value)) {
        return Fail(res, ExecStatus::kOutOfPacket);
      }
      if (depth >= kMaxStackDepth) {
        return Fail(res, ExecStatus::kStackOverflow);
      }
      stack[depth++] = value;
    } else {
      switch (static_cast<StackAction>(fields.action_bits)) {
        case StackAction::kNoPush:
          break;
        case StackAction::kPushLit: {
          if (i + 1 >= words.size()) {
            return Fail(res, ExecStatus::kMissingLiteral);
          }
          if (depth >= kMaxStackDepth) {
            return Fail(res, ExecStatus::kStackOverflow);
          }
          stack[depth++] = words[++i];
          break;
        }
        case StackAction::kPushZero:
        case StackAction::kPushOne:
        case StackAction::kPushFFFF:
        case StackAction::kPushFF00:
        case StackAction::kPush00FF: {
          if (depth >= kMaxStackDepth) {
            return Fail(res, ExecStatus::kStackOverflow);
          }
          static constexpr uint16_t kConstants[] = {0, 0, 0x0000, 0x0001,
                                                    0xffff, 0xff00, 0x00ff};
          stack[depth++] = kConstants[fields.action_bits];
          break;
        }
        case StackAction::kPushInd: {
          if (depth < 1) {
            return Fail(res, ExecStatus::kStackUnderflow);
          }
          uint16_t value = 0;
          if (!pfutil::LoadPacketWordAtByte(packet, stack[depth - 1], &value)) {
            return Fail(res, ExecStatus::kOutOfPacket);
          }
          stack[depth - 1] = value;
          break;
        }
        case StackAction::kPushWord:
          break;  // unreachable: encoded values >= kPushWordBase handled above
      }
    }

    // --- Binary operation ---
    const auto op = static_cast<BinaryOp>(fields.op_bits);
    if (op == BinaryOp::kNop) {
      continue;
    }
    if (depth < 2) {
      return Fail(res, ExecStatus::kStackUnderflow);
    }
    const uint16_t t1 = stack[--depth];  // original top of stack
    const uint16_t t2 = stack[depth - 1];
    uint16_t result = 0;
    switch (detail::EvalBinaryOp(op, t1, t2, &result)) {
      case detail::OpOutcome::kContinue:
        break;
      case detail::OpOutcome::kAccept:
        res.accept = true;
        res.short_circuited = true;
        return res;
      case detail::OpOutcome::kReject:
        res.accept = false;
        res.short_circuited = true;
        return res;
      case detail::OpOutcome::kDivideByZero:
        return Fail(res, ExecStatus::kDivideByZero);
    }
    stack[depth - 1] = result;
  }

  if (depth == 0) {
    return Fail(res, ExecStatus::kEmptyStackAtEnd);
  }
  res.accept = stack[depth - 1] != 0;
  return res;
}

}  // namespace pf
