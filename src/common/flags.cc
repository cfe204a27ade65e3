#include "common/flags.h"

#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace draconis::flags {

Parser::Parser(std::string program_description)
    : description_(std::move(program_description)) {}

void Parser::AddDouble(const std::string& name, double* out, const std::string& help) {
  DRACONIS_CHECK(out != nullptr && Find(name) == nullptr);
  registered_.push_back(Flag{name, Kind::kDouble, out, help, std::to_string(*out), {}});
}

void Parser::AddInt64(const std::string& name, int64_t* out, const std::string& help) {
  DRACONIS_CHECK(out != nullptr && Find(name) == nullptr);
  registered_.push_back(Flag{name, Kind::kInt64, out, help, std::to_string(*out), {}});
}

void Parser::AddBool(const std::string& name, bool* out, const std::string& help) {
  DRACONIS_CHECK(out != nullptr && Find(name) == nullptr);
  registered_.push_back(Flag{name, Kind::kBool, out, help, *out ? "true" : "false", {}});
}

void Parser::AddString(const std::string& name, std::string* out, const std::string& help) {
  DRACONIS_CHECK(out != nullptr && Find(name) == nullptr);
  registered_.push_back(Flag{name, Kind::kString, out, help, *out, {}});
}

void Parser::AddDuration(const std::string& name, TimeNs* out, const std::string& help) {
  DRACONIS_CHECK(out != nullptr && Find(name) == nullptr);
  registered_.push_back(Flag{name, Kind::kDuration, out, help, FormatDuration(*out), {}});
}

void Parser::AddChoice(const std::string& name, std::string* out,
                       std::vector<std::string> choices, const std::string& help) {
  DRACONIS_CHECK(out != nullptr && Find(name) == nullptr && !choices.empty());
  bool default_listed = false;
  for (const std::string& choice : choices) {
    default_listed = default_listed || choice == *out;
  }
  DRACONIS_CHECK_MSG(default_listed, "the default must be one of the choices");
  registered_.push_back(Flag{name, Kind::kChoice, out, help, *out, std::move(choices)});
}

const Parser::Flag* Parser::Find(const std::string& name) const {
  for (const Flag& flag : registered_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool Parser::Assign(const Flag& flag, const std::string& value) {
  char* end = nullptr;
  switch (flag.kind) {
    case Kind::kDouble: {
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
      *static_cast<double*>(flag.target) = parsed;
      return true;
    }
    case Kind::kInt64: {
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
      *static_cast<int64_t*>(flag.target) = parsed;
      return true;
    }
    case Kind::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
        return true;
      }
      if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
        return true;
      }
      return false;
    }
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = value;
      return true;
    case Kind::kDuration:
      return ParseDuration(value, static_cast<TimeNs*>(flag.target));
    case Kind::kChoice:
      for (const std::string& choice : flag.choices) {
        if (value == choice) {
          *static_cast<std::string*>(flag.target) = value;
          return true;
        }
      }
      return false;
  }
  return false;
}

bool Parser::Parse(int argc, const char* const* argv, std::string* error) {
  DRACONIS_CHECK(error != nullptr);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);

    std::string name;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      const Flag* flag = Find(name);
      if (flag != nullptr && flag->kind == Kind::kBool) {
        value = "true";  // bare --flag enables a boolean
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        *error = "missing value for --" + name;
        return false;
      }
    }

    const Flag* flag = Find(name);
    if (flag == nullptr) {
      *error = "unknown flag --" + name;
      return false;
    }
    if (!Assign(*flag, value)) {
      *error = "bad value for --" + name + ": '" + value + "'";
      return false;
    }
  }
  return true;
}

std::string Parser::Usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const Flag& flag : registered_) {
    os << "  --" << flag.name << "  (default: " << flag.default_text << ")";
    if (flag.kind == Kind::kChoice) {
      os << "  [";
      for (size_t i = 0; i < flag.choices.size(); ++i) {
        os << (i > 0 ? "|" : "") << flag.choices[i];
      }
      os << "]";
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace draconis::flags
