#include "obs/cost.h"

#include <fstream>
#include <ostream>

namespace rfid::obs {

void CostBill::add(const CostBill& o) {
  for (const auto& f : kCostFields) this->*f.member += o.*f.member;
}

void CostBill::subtract(const CostBill& o) {
  for (const auto& f : kCostFields) this->*f.member -= o.*f.member;
}

bool CostBill::zero() const {
  for (const auto& f : kCostFields) {
    if (this->*f.member != 0) return false;
  }
  return true;
}

void CostBill::writeJson(std::ostream& os) const {
  os << '{';
  bool first = true;
  for (const auto& f : kCostFields) {
    if (!first) os << ',';
    first = false;
    os << '"' << f.name << "\":" << this->*f.member;
  }
  os << '}';
}

void CostLedger::charge(std::string_view phase, const CostBill& bill) {
  if (bill.zero()) return;
  auto it = phases_.find(phase);
  if (it == phases_.end()) {
    it = phases_.emplace(std::string(phase), CostBill{}).first;
  }
  it->second.add(bill);
  total_.add(bill);
}

void CostLedger::commitSlot(const CostBill& bill) { slots_.push_back(bill); }

const CostBill* CostLedger::phase(std::string_view name) const {
  auto it = phases_.find(name);
  return it == phases_.end() ? nullptr : &it->second;
}

namespace {
std::string pad(int n) { return std::string(static_cast<std::size_t>(n), ' '); }
}  // namespace

void CostLedger::writeJson(std::ostream& os, int indent) const {
  const std::string p0 = pad(indent);
  const std::string p1 = pad(indent + 2);
  const std::string p2 = pad(indent + 4);
  os << "{\n" << p1 << "\"total\": ";
  total_.writeJson(os);
  os << ",\n" << p1 << "\"phases\": {";
  bool first = true;
  for (const auto& [name, bill] : phases_) {
    os << (first ? "\n" : ",\n") << p2 << '"' << name << "\": ";
    first = false;
    bill.writeJson(os);
  }
  if (!first) os << '\n' << p1;
  os << "},\n" << p1 << "\"slots\": [";
  first = true;
  for (const auto& bill : slots_) {
    os << (first ? "\n" : ",\n") << p2;
    first = false;
    bill.writeJson(os);
  }
  if (!first) os << '\n' << p1;
  os << "]\n" << p0 << '}';
}

bool CostLedger::writeJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  writeJson(out);
  out << '\n';
  return out.good();
}

}  // namespace rfid::obs
