#include "src/kernel/pipe.h"

namespace pfkern {

pfsim::ValueTask<void> MessagePipe::Write(int pid, pf::PacketBuf message) {
  const size_t bytes = message.size();
  const Machine::Charge charges[] = {{Cost::kSyscall, machine_->costs().syscall},
                                     machine_->CopyCharge(bytes),
                                     {Cost::kPipe, machine_->costs().pipe_overhead}};
  co_await machine_->RunMulti(pid, charges);
  while (queue_.size() >= queue_.capacity() && queue_.waiter_count() == 0) {
    machine_->MarkBlocked(pid);
    co_await space_.Wait();
  }
  queue_.ForcePush(std::move(message));
}

pfsim::ValueTask<void> MessagePipe::WriteBatch(int pid, std::vector<pf::PacketBuf> messages) {
  std::vector<Machine::Charge> charges;
  charges.emplace_back(Cost::kSyscall, machine_->costs().syscall);
  for (const auto& message : messages) {
    charges.emplace_back(machine_->CopyCharge(message.size()));
  }
  charges.emplace_back(Cost::kPipe, machine_->costs().pipe_overhead);
  co_await machine_->RunMulti(pid, charges);
  for (auto& message : messages) {
    while (queue_.size() >= queue_.capacity() && queue_.waiter_count() == 0) {
      machine_->MarkBlocked(pid);
      co_await space_.Wait();
    }
    queue_.ForcePush(std::move(message));
  }
}

pfsim::ValueTask<std::vector<pf::PacketBuf>> MessagePipe::ReadBatch(
    int pid, pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  std::vector<pf::PacketBuf> out;
  if (queue_.empty()) {
    machine_->MarkBlocked(pid);
    std::optional<pf::PacketBuf> first = co_await queue_.PopWithTimeout(timeout);
    if (!first.has_value()) {
      co_return out;
    }
    out.push_back(std::move(*first));
  }
  for (auto& message : queue_.DrainAll()) {
    out.push_back(std::move(message));
  }
  std::vector<Machine::Charge> charges;
  for (const auto& message : out) {
    charges.emplace_back(machine_->CopyCharge(message.size()));
  }
  co_await machine_->RunMulti(pid, charges);
  for (size_t i = 0; i < out.size(); ++i) {
    space_.NotifyOne();
  }
  co_return out;
}

pfsim::ValueTask<std::optional<pf::PacketBuf>> MessagePipe::Read(
    int pid, pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  if (queue_.empty()) {
    machine_->MarkBlocked(pid);
  }
  std::optional<pf::PacketBuf> message = co_await queue_.PopWithTimeout(timeout);
  if (message.has_value()) {
    const Machine::Charge copy = machine_->CopyCharge(message->size());
    co_await machine_->Run(pid, copy.first, copy.second);
    space_.NotifyOne();
  }
  co_return message;
}

}  // namespace pfkern
