#include "apm/measurement.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"

namespace apmbench::apm {

std::string MeasurementCodec::MetricPrefix(const std::string& metric) {
  uint64_t hash = MurmurHash64A(metric.data(), metric.size(), 0xA9F1);
  char buf[16];
  snprintf(buf, sizeof(buf), "m%012" PRIx64,
           static_cast<uint64_t>(hash & 0xffffffffffffULL));
  return buf;
}

std::string MeasurementCodec::Key(const std::string& metric,
                                  uint64_t timestamp) {
  char buf[16];
  snprintf(buf, sizeof(buf), "%012" PRIu64,
           static_cast<uint64_t>(timestamp % 1000000000000ULL));
  return MetricPrefix(metric) + buf;
}

namespace {

std::string FixedDouble(double v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%10.3f", v);
  return std::string(buf, 10);
}

std::string FixedUint(uint64_t v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%010" PRIu64,
           static_cast<uint64_t>(v % 10000000000ULL));
  return std::string(buf, 10);
}

}  // namespace

ycsb::Record MeasurementCodec::ToRecord(const Measurement& m) {
  return ycsb::Record{{"field0", FixedDouble(m.value)},
                      {"field1", FixedDouble(m.min)},
                      {"field2", FixedDouble(m.max)},
                      {"field3", FixedUint(m.timestamp)},
                      {"field4", FixedUint(m.duration)}};
}

Status MeasurementCodec::FromRecord(const ycsb::Record& record,
                                    Measurement* m) {
  if (record.size() < 5) {
    return Status::Corruption("measurement record needs 5 fields");
  }
  // Fields may arrive reordered from per-cell stores; index by name.
  const std::string* fields[5] = {nullptr, nullptr, nullptr, nullptr,
                                  nullptr};
  for (const auto& [name, value] : record) {
    if (name.size() == 6 && name.rfind("field", 0) == 0) {
      int index = name[5] - '0';
      if (index >= 0 && index < 5) fields[index] = &value;
    }
  }
  for (const auto* field : fields) {
    if (field == nullptr) {
      return Status::Corruption("missing measurement field");
    }
  }
  m->value = strtod(fields[0]->c_str(), nullptr);
  m->min = strtod(fields[1]->c_str(), nullptr);
  m->max = strtod(fields[2]->c_str(), nullptr);
  m->timestamp = strtoull(fields[3]->c_str(), nullptr, 10);
  m->duration = static_cast<uint32_t>(strtoul(fields[4]->c_str(), nullptr, 10));
  return Status::OK();
}

Status MeasurementCodec::Write(ycsb::DB* db, const std::string& table,
                               const Measurement& measurement) {
  std::string key = Key(measurement.metric, measurement.timestamp);
  return db->Insert(table, Slice(key), ToRecord(measurement));
}

}  // namespace apmbench::apm
