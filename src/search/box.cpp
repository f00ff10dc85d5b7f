#include "search/box.hpp"

#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace aurv::search {

using numeric::Rational;
using support::Json;

ParamBox::ParamBox(std::vector<Interval> dims, std::string id)
    : dims_(std::move(dims)), id_(std::move(id)) {
  AURV_CHECK_MSG(!dims_.empty(), "ParamBox: at least one dimension required");
  for (const Interval& dim : dims_)
    AURV_CHECK_MSG(dim.lo <= dim.hi, "ParamBox: interval with lo > hi");
  for (const char c : id_)
    AURV_CHECK_MSG(c == '0' || c == '1', "ParamBox: id must be a '0'/'1' bisection path");
}

std::size_t ParamBox::split_dimension() const {
  std::size_t best = 0;
  Rational best_width = dims_[0].width();
  for (std::size_t k = 1; k < dims_.size(); ++k) {
    Rational width = dims_[k].width();
    if (width > best_width) {  // strict: ties keep the lowest index
      best = k;
      best_width = std::move(width);
    }
  }
  return best;
}

Rational ParamBox::width() const { return dims_[split_dimension()].width(); }

std::pair<ParamBox, ParamBox> ParamBox::bisect() const {
  const std::size_t axis = split_dimension();
  const Rational mid = dims_[axis].midpoint();
  std::vector<Interval> lower = dims_;
  std::vector<Interval> upper = dims_;
  lower[axis].hi = mid;
  upper[axis].lo = mid;
  return {ParamBox(std::move(lower), id_ + "0"), ParamBox(std::move(upper), id_ + "1")};
}

std::vector<Rational> ParamBox::midpoint() const {
  std::vector<Rational> point;
  point.reserve(dims_.size());
  for (const Interval& dim : dims_) point.push_back(dim.midpoint());
  return point;
}

Json ParamBox::to_json() const {
  Json dims_json = Json::array();
  for (const Interval& dim : dims_) {
    Json pair = Json::array();
    pair.push_back(Json(dim.lo.to_string()));
    pair.push_back(Json(dim.hi.to_string()));
    dims_json.push_back(std::move(pair));
  }
  Json json = Json::object();
  json.set("id", Json(id_));
  json.set("dims", std::move(dims_json));
  return json;
}

ParamBox ParamBox::from_json(const Json& json) {
  std::vector<Interval> dims;
  for (const Json& pair : json.at("dims").as_array()) {
    const Json::Array& ends = pair.as_array();
    if (ends.size() != 2)
      throw support::JsonError("ParamBox: dimension must be a [lo, hi] pair");
    dims.push_back(Interval{Rational::from_string(ends[0].as_string()),
                            Rational::from_string(ends[1].as_string())});
  }
  return ParamBox(std::move(dims), json.at("id").as_string());
}

Json bound_to_json(double bound) {
  if (std::isinf(bound)) return Json(bound > 0 ? "inf" : "-inf");
  return Json(bound);
}

double bound_from_json(const Json& json) {
  if (json.is_string()) {
    if (json.as_string() == "inf") return std::numeric_limits<double>::infinity();
    if (json.as_string() == "-inf") return -std::numeric_limits<double>::infinity();
    throw support::JsonError("bound: expected a number, \"inf\" or \"-inf\", got \"" +
                             json.as_string() + "\"");
  }
  return json.as_number();
}

Json OpenBox::to_json() const {
  Json json = box.to_json();
  json.set("bound", bound_to_json(bound));
  return json;
}

std::string OpenBox::encode() const {
  // Ids are '0'/'1' paths and rational strings hold only digits, '-' and
  // '/', so nothing here needs JSON escaping.
  std::string out = "{\"id\":\"";
  out += box.id();
  out += "\",\"dims\":[";
  const char* separator = "[\"";
  for (const Interval& dim : box.dims()) {
    out += separator;
    out += dim.lo.to_string();
    out += "\",\"";
    out += dim.hi.to_string();
    out += "\"]";
    separator = ",[\"";
  }
  out += "],\"bound\":";
  if (std::isinf(bound))
    out += bound > 0 ? "\"inf\"" : "\"-inf\"";
  else
    out += support::json_number_to_string(bound);
  out += '}';
  return out;
}

OpenBox OpenBox::from_json(const Json& json) {
  return OpenBox{ParamBox::from_json(json), bound_from_json(json.at("bound"))};
}

}  // namespace aurv::search
